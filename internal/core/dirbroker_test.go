package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/kepler"
	"repro/internal/sim"
)

// TestDirBrokerWarmReplay: a second runner pointed at the same trace
// directory must serve a clock-insensitive program entirely from disk —
// zero program executions — and produce bit-identical results.
func TestDirBrokerWarmReplay(t *testing.T) {
	dir := t.TempDir()

	coldCalls := 0
	cold := NewRunner()
	cold.Broker = NewDirBroker(dir)
	want := measureConfigs(t, cold, insensitiveToy("toy-dirbroker", &coldCalls))
	if coldCalls != 1 {
		t.Fatalf("cold runner ran the program %d times, want 1", coldCalls)
	}

	warmCalls := 0
	warm := NewRunner()
	warm.Broker = NewDirBroker(dir)
	got := measureConfigs(t, warm, insensitiveToy("toy-dirbroker", &warmCalls))
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

// captureToy runs a small kernel on a K20c GPU and returns its trace.
func captureToy(t *testing.T) *sim.LaunchTrace {
	t.Helper()
	g := sim.NewGPU(kepler.K20cDevice())
	a := g.NewArray(1<<12, 4)
	g.Launch("k", 16, 128, func(c *sim.Ctx) {
		c.Load(a.At(c.TID()), 4)
		c.FP32Ops(10)
	})
	return g.Trace()
}

// TestDirBrokerRoundTripAndMisses: store/fetch round trip, miss semantics
// for absent and corrupt files, and key separation for hostile names.
func TestDirBrokerRoundTripAndMisses(t *testing.T) {
	dir := t.TempDir()
	b := NewDirBroker(dir)

	if tr := b.FetchTrace("K20c", "nope", "default"); tr != nil {
		t.Errorf("fetch of an absent key returned %v, want nil", tr)
	}

	tr := captureToy(t)
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

// TestDirBrokerRecapturesPreviousVersionTombstone: a directory written
// before the clock-free block order holds version-1 tombstones for ordered
// programs. Such a file is a miss, and the runner overwrites it with a
// replayable capture, so the program simulates once instead of at every
// configuration.
func TestDirBrokerRecapturesPreviousVersionTombstone(t *testing.T) {
	calls := 0
	old := `{"version":1,"device":"` + kepler.Default.Device().Name + `","sensitive":true,"reason":"ordered launch \"relax\""}`
	recaptureOver(t, orderedToy("toy-ordered-v1", &calls), &calls, old)
}

// TestDirBrokerRecapturesVersion2JSON: a directory written before traces
// travelled as binary holds version-2 JSON documents. Such a file is a
// miss, and the next store overwrites it with the binary encoding.
func TestDirBrokerRecapturesVersion2JSON(t *testing.T) {
	calls := 0
	old := `{"version":2,"device":"` + kepler.Default.Device().Name + `","events":[{"kind":"pause","pause":0.001}]}`
	recaptureOver(t, insensitiveToy("toy-json-v2", &calls), &calls, old)
}

// recaptureOver stores old as p's trace file, checks the broker misses it,
// then measures p at every configuration: p must run once, and its file
// must then hold a replayable capture.
func recaptureOver(t *testing.T, p Program, calls *int, old string) {
	t.Helper()
	b := NewDirBroker(t.TempDir())
	dev := kepler.Default.Device().Name
	path := b.path(dev, p.Name(), "default")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if tr := b.FetchTrace(dev, p.Name(), "default"); tr != nil {
		t.Fatalf("stale trace file %s served a trace, want miss", old)
	}

	r := NewRunner()
	r.Broker = b
	measureConfigs(t, r, p)
	if *calls != 1 {
		t.Errorf("program ran %d times, want 1", *calls)
	}
	tr := b.FetchTrace(dev, p.Name(), "default")
	if tr == nil {
		t.Fatal("runner did not overwrite the stale trace file")
	}
	if tr.ClockSensitive() || tr.Launches() == 0 {
		t.Errorf("stored trace: sensitive=%v launches=%d, want a replayable capture",
			tr.ClockSensitive(), tr.Launches())
	}
}
