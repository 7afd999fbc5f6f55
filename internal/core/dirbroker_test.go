package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/kepler"
	"repro/internal/sim"
)

// dirBroker opens the trace store at dir.
func dirBroker(t *testing.T, dir string) *DirBroker {
	t.Helper()
	b, err := NewDirBroker(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// storeRunner returns a runner whose trace store is dir.
func storeRunner(t *testing.T, dir string) *Runner {
	t.Helper()
	r := NewRunner()
	r.Broker = dirBroker(t, dir)
	return r
}

// counter reads one of the runner's counters.
func counter(r *Runner, name string) int64 {
	return r.Metrics().Snapshot().Counters[name]
}

// TestDirBrokerWarmReplay: a second runner pointed at the same trace
// directory must serve a clock-insensitive program entirely from disk —
// zero program executions — and produce bit-identical results.
func TestDirBrokerWarmReplay(t *testing.T) {
	dir := t.TempDir()

	coldCalls := 0
	want := measureConfigs(t, storeRunner(t, dir), insensitiveToy("toy-dirbroker", &coldCalls))
	if coldCalls != 1 {
		t.Fatalf("cold runner ran the program %d times, want 1", coldCalls)
	}

	warmCalls := 0
	got := measureConfigs(t, storeRunner(t, dir), insensitiveToy("toy-dirbroker", &warmCalls))
	if warmCalls != 0 {
		t.Errorf("warm runner ran the program %d times, want 0 (broker should replay)", warmCalls)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: warm result differs from cold:\ngot  %+v\nwant %+v",
				kepler.Configs[i].Name, got[i], want[i])
		}
	}
}

// TestStoreRoundTrip: a fresh runner on the store a first runner filled
// returns the same numbers without running the program.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := computeBoundToy(4000)
	want, err := storeRunner(t, dir).Measure(context.Background(), p, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}

	calls := 0
	spy := &toyProgram{name: p.Name(), suite: p.Suite(), run: func(dev *sim.GPU) error {
		calls++
		return nil
	}}
	got, err := storeRunner(t, dir).Measure(context.Background(), spy, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("program ran %d times despite a warm store", calls)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("store round trip changed the result:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestStoreCachesInsufficiency: replaying a stored trace re-derives an
// exclusion with zero captures.
func TestStoreCachesInsufficiency(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	tiny := func() *toyProgram {
		return &toyProgram{name: "toy-tiny-store", suite: SuiteSDK, run: func(dev *sim.GPU) error {
			calls++
			dev.Launch("k", 16, 256, func(c *sim.Ctx) { c.FP32Ops(10) })
			return nil
		}}
	}
	if _, err := storeRunner(t, dir).Measure(context.Background(), tiny(), "default", kepler.Default); !IsInsufficient(err) {
		t.Fatalf("cold measure: %v, want insufficiency", err)
	}

	calls = 0
	warm := storeRunner(t, dir)
	if _, err := warm.Measure(context.Background(), tiny(), "default", kepler.Default); !IsInsufficient(err) {
		t.Fatalf("warm measure: %v, want insufficiency", err)
	}
	if calls != 0 || counter(warm, "trace_cache_captures") != 0 {
		t.Errorf("warm replay ran the program %d times, captured %d traces; want 0 and 0",
			calls, counter(warm, "trace_cache_captures"))
	}
}

// TestDirBrokerRoundTripAndMisses: store/fetch round trip, miss semantics
// for absent and corrupt files, and key separation for names with slashes.
func TestDirBrokerRoundTripAndMisses(t *testing.T) {
	dir := t.TempDir()
	b := dirBroker(t, dir)

	if tr := b.FetchTrace("K20c", "nope", "default"); tr != nil {
		t.Errorf("fetch of an absent key returned %v, want nil", tr)
	}

	tr := launchesTrace(t, 1)
	const dev, prog, input = "K20c", "prog/with slashes", "in..put"
	b.StoreTrace(dev, prog, input, tr)

	got := b.FetchTrace(dev, prog, input)
	if got == nil {
		t.Fatal("fetch after store missed")
	}
	if got.DeviceName() != tr.DeviceName() || got.Launches() != tr.Launches() || got.Bytes() != tr.Bytes() {
		t.Errorf("round trip changed the trace: %s/%d/%d vs %s/%d/%d",
			got.DeviceName(), got.Launches(), got.Bytes(),
			tr.DeviceName(), tr.Launches(), tr.Bytes())
	}

	// The slash in the program name must not leak a path level: nearby
	// keys stay distinct misses.
	for _, k := range [][3]string{
		{dev, "prog", "with slashes/in..put"},
		{dev, "prog/with slashes/in..put", ""},
		{"K20c/prog", "with slashes", input},
	} {
		if hit := b.FetchTrace(k[0], k[1], k[2]); hit != nil {
			t.Errorf("key %v aliased the stored trace", k)
		}
	}

	// A corrupt file is a miss, not an error.
	var files []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if len(files) != 1 {
		t.Fatalf("store produced %d files, want 1: %v", len(files), files)
	}
	if err := os.WriteFile(files[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if hit := b.FetchTrace(dev, prog, input); hit != nil {
		t.Error("corrupt trace file served a trace, want miss")
	}
}

// encodedToy captures p and returns its wire encoding.
func encodedToy(t *testing.T, p Program) []byte {
	t.Helper()
	gpu := sim.NewGPU(kepler.Default.Device())
	if err := RunProgram(context.Background(), p, gpu, "default"); err != nil {
		t.Fatal(err)
	}
	data, err := sim.EncodeTrace(gpu.Trace())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadStoreFailurePaths: every unreadable entry of the trace store is a
// miss. The runner captures the program once and stores its trace over the
// bad entry, where the next fetch finds it.
func TestLoadStoreFailurePaths(t *testing.T) {
	const prog = "toy-failure"
	good := encodedToy(t, insensitiveToy(prog, nil))
	badVersion := append([]byte(nil), good...)
	badVersion[len("\x89GTR")]++ // the wire version follows the magic
	if _, err := sim.DecodeTrace(badVersion); err == nil || !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("bumped wire version decodes: %v", err)
	}
	dev := kepler.Default.Device().Name
	oldVersion := filepath.Join("c"+strconv.Itoa(CaptureVersion-1), dev, prog, "default.trace")
	for _, c := range []struct {
		name  string
		setup func(t *testing.T, root, trace string)
	}{
		{"missing file", func(*testing.T, string, string) {}},
		{"corrupt JSON", writeAt("", `{"version":2,"device":"K20c","events":[`)},
		{"version mismatch", writeAt("", string(badVersion))},
		{"garbage", writeAt("", "not a trace")},
		{"truncated", writeAt("", string(good[:len(good)/2]))},
		{"old capture version", writeAt(oldVersion, string(good))},
		{"file where a directory should be", writeAt(filepath.Join("c"+strconv.Itoa(CaptureVersion), dev), "stray")},
	} {
		t.Run(c.name, func(t *testing.T) {
			calls := 0
			recaptureOver(t, insensitiveToy(prog, &calls), &calls, c.setup)
		})
	}
}

// TestStoreRejectsWrongVersion: the broker serves only traces of its own
// versions. A valid trace stored under a later capture version's directory
// is not read, and a trace file of a later wire version at the key's own
// path is a miss.
func TestStoreRejectsWrongVersion(t *testing.T) {
	const prog = "toy-wrong-version"
	good := encodedToy(t, insensitiveToy(prog, nil))
	root := t.TempDir()
	b := dirBroker(t, root)
	dev := kepler.Default.Device().Name

	newer := filepath.Join(root, "c"+strconv.Itoa(CaptureVersion+1), dev, prog, "default.trace")
	writeAt("", string(good))(t, root, newer)
	if tr := b.FetchTrace(dev, prog, "default"); tr != nil {
		t.Error("broker served a trace stored under a later capture version")
	}

	later := append([]byte(nil), good...)
	later[len("\x89GTR")]++ // the wire version follows the magic
	writeAt("", string(later))(t, root, b.path(dev, prog, "default"))
	if tr := b.FetchTrace(dev, prog, "default"); tr != nil {
		t.Error("broker served a trace of a later wire version")
	}

	writeAt("", string(good))(t, root, b.path(dev, prog, "default"))
	if tr := b.FetchTrace(dev, prog, "default"); tr == nil {
		t.Error("broker missed a trace of its own versions")
	}
}

// TestDirBrokerRecapturesPreviousVersionTombstone: a directory written
// before the clock-free block order holds version-1 tombstones for ordered
// programs. Such a file is a miss, and the runner overwrites it with a
// replayable capture, so the program simulates once instead of at every
// configuration.
func TestDirBrokerRecapturesPreviousVersionTombstone(t *testing.T) {
	calls := 0
	old := `{"version":1,"device":"` + kepler.Default.Device().Name + `","sensitive":true,"reason":"ordered launch \"relax\""}`
	recaptureOver(t, orderedToy("toy-ordered-v1", &calls), &calls, writeAt("", old))
}

// TestDirBrokerRecapturesVersion2JSON: a directory written before traces
// travelled as binary holds version-2 JSON documents. Such a file is a
// miss, and the next store overwrites it with the binary encoding.
func TestDirBrokerRecapturesVersion2JSON(t *testing.T) {
	calls := 0
	old := `{"version":2,"device":"` + kepler.Default.Device().Name + `","events":[{"kind":"pause","pause":0.001}]}`
	recaptureOver(t, insensitiveToy("toy-json-v2", &calls), &calls, writeAt("", old))
}

// writeAt returns a setup that puts data at rel below the store root, or
// in the trace's own file when rel is empty.
func writeAt(rel, data string) func(t *testing.T, root, trace string) {
	return func(t *testing.T, root, trace string) {
		path := trace
		if rel != "" {
			path = filepath.Join(root, rel)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recaptureOver lets setup spoil a fresh store in which trace is p's file,
// checks the broker misses p, then measures p at every configuration: p
// must run once, and its file must then hold a replayable capture.
func recaptureOver(t *testing.T, p Program, calls *int, setup func(t *testing.T, root, trace string)) {
	t.Helper()
	root := t.TempDir()
	b := dirBroker(t, root)
	dev := kepler.Default.Device().Name
	setup(t, root, b.path(dev, p.Name(), "default"))
	if tr := b.FetchTrace(dev, p.Name(), "default"); tr != nil {
		t.Fatal("spoiled store served a trace, want a miss")
	}

	r := NewRunner()
	r.Broker = b
	measureConfigs(t, r, p)
	if *calls != 1 {
		t.Errorf("program ran %d times, want 1", *calls)
	}
	tr := b.FetchTrace(dev, p.Name(), "default")
	if tr == nil {
		t.Fatal("runner did not store its capture over the spoiled entry")
	}
	if tr.ClockSensitive() || tr.Launches() == 0 {
		t.Errorf("stored trace: sensitive=%v launches=%d, want a replayable capture",
			tr.ClockSensitive(), tr.Launches())
	}
}

// launchesTrace captures a K20c trace of n launches.
func launchesTrace(t *testing.T, n int) *sim.LaunchTrace {
	t.Helper()
	g := sim.NewGPU(kepler.K20cDevice())
	a := g.NewArray(1<<12, 4)
	for i := 0; i < n; i++ {
		g.Launch("k", 16, 128, func(c *sim.Ctx) {
			c.Load(a.At(c.TID()), 4)
			c.FP32Ops(10)
		})
	}
	return g.Trace()
}

// TestKeyRoundTripHostileNames: keys made of NULs, backslashes or nothing
// at all each keep a trace file of their own: every key fetches the trace
// stored under it, and nothing lands outside the store.
func TestKeyRoundTripHostileNames(t *testing.T) {
	keys := [][3]string{ // device, program, input
		{"K20c", "N\x00B", "1m"},
		{`tricky\`, "\x00", "\x00\x00"},
		{"\x00\\\x00", `\`, `\\`},
		{"", "", ""},
	}
	parent := t.TempDir()
	b := dirBroker(t, filepath.Join(parent, "store"))
	for i, k := range keys {
		if tr := b.FetchTrace(k[0], k[1], k[2]); tr != nil {
			t.Fatalf("key %q: fetch before any store returned a trace", k)
		}
		b.StoreTrace(k[0], k[1], k[2], launchesTrace(t, i+1))
	}
	for i, k := range keys {
		tr := b.FetchTrace(k[0], k[1], k[2])
		if tr == nil || tr.Launches() != i+1 {
			t.Errorf("key %q: fetched %v, want the trace of %d launches stored under it", k, tr, i+1)
		}
	}
	if entries, err := os.ReadDir(parent); err != nil || len(entries) != 1 {
		t.Errorf("the store's parent holds %v (%v), want only the store", entries, err)
	}
}

// TestSaveStoreConcurrentWithMeasure: two runners measuring the same
// programs concurrently capture into one store (run under -race, this
// checks the broker's writes); a third runner then replays every program
// with zero captures.
func TestSaveStoreConcurrentWithMeasure(t *testing.T) {
	dir := t.TempDir()
	var progs []*toyProgram
	for i := 0; i < 8; i++ {
		progs = append(progs, computeBoundToy(3000+100*i))
		progs[i].name = fmt.Sprintf("toy-race-%d", i)
	}
	var wg sync.WaitGroup
	for range 2 {
		r := storeRunner(t, dir)
		r.Repetitions = 1
		for _, p := range progs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := r.Measure(context.Background(), p, "default", kepler.Default); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()

	warm := storeRunner(t, dir)
	warm.Repetitions = 1
	for _, p := range progs {
		spy := &toyProgram{name: p.name, suite: p.suite, run: func(dev *sim.GPU) error {
			t.Errorf("%s re-ran despite its stored trace", p.name)
			return nil
		}}
		if _, err := warm.Measure(context.Background(), spy, "default", kepler.Default); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
	if got := counter(warm, "trace_broker_fetch_hits"); got != int64(len(progs)) {
		t.Errorf("warm runner: %d broker hits, want %d", got, len(progs))
	}
}

// TestNewDirBrokerRefusesFile: a store path naming a regular file (a
// results file written before traces were the store) is refused, and a
// missing one is created on the first store.
func TestNewDirBrokerRefusesFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "store.json")
	if err := os.WriteFile(file, []byte(`{"version":2,"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirBroker(file); err == nil {
		t.Error("a regular file was accepted as a trace store")
	}
	dir := filepath.Join(t.TempDir(), "new", "store")
	b := dirBroker(t, dir)
	b.StoreTrace("K20c", "p", "in", launchesTrace(t, 1))
	if b.FetchTrace("K20c", "p", "in") == nil {
		t.Error("a store in a missing directory kept nothing")
	}
}
