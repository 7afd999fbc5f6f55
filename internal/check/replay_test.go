package check

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/sim"
	"repro/internal/suites"
)

// readDigests reads a digest file: the capture version it was written at,
// and its digests by key.
func readDigests(t *testing.T, path string) (int, map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(mustRead(t, path), "\n"), "\n")
	var version int
	if _, err := fmt.Sscanf(lines[0], "capture-version %d", &version); err != nil {
		t.Fatalf("%s: header %q: %v", path, lines[0], err)
	}
	sums := make(map[string]string, len(lines)-1)
	for _, line := range lines[1:] {
		key, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		sums[key] = sum
	}
	return version, sums
}

// pinnedDigests loads the committed trace digests after checking the file
// is at the current capture version and pins exactly the captures
// DigestCaptures lists.
func pinnedDigests(t *testing.T) map[string]string {
	t.Helper()
	version, pinned := readDigests(t, filepath.Join(goldenDir, DigestFileName))
	if version != core.CaptureVersion {
		t.Fatalf("digest file at capture version %d, core.CaptureVersion is %d: regenerate with `go run ./cmd/goldengen`",
			version, core.CaptureVersion)
	}
	captures := DigestCaptures(append(suites.All(), suites.Variants()...))
	for _, c := range captures {
		if _, ok := pinned[c.Key()]; !ok {
			t.Fatalf("digest file lacks %s", c.Key())
		}
	}
	if len(pinned) != len(captures) {
		t.Fatalf("digest file pins %d traces, want the %d DigestCaptures lists", len(pinned), len(captures))
	}
	return pinned
}

// checkDigest compares a capture's digest with the pinned one.
func checkDigest(t *testing.T, pinned map[string]string, key, sum string) {
	t.Helper()
	if sum != pinned[key] {
		t.Errorf("%s: trace digest %s, pinned %s: the capture changed; bump core.CaptureVersion and regenerate with `go run ./cmd/goldengen`",
			key, sum, pinned[key])
	}
}

// TestEveryProgramCapturesReplayableTrace runs every studied program (and
// every variant) on a K20c GPU and asserts its trace records launches,
// replays at another configuration and encodes to its pinned digest.
func TestEveryProgramCapturesReplayableTrace(t *testing.T) {
	pinned := pinnedDigests(t)
	for _, p := range append(suites.All(), suites.Variants()...) {
		gpu := sim.NewGPU(kepler.K20cDevice())
		if err := core.RunProgram(context.Background(), p, gpu, p.DefaultInput()); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		tr := gpu.Trace()
		if tr.Launches() == 0 {
			t.Errorf("%s: capture recorded no launches", p.Name())
		}
		if tr.Bytes() <= 0 {
			t.Errorf("%s: capture reports no footprint", p.Name())
		}
		if _, err := tr.Replay(kepler.F614); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
		sum, err := TraceDigest(tr)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		checkDigest(t, pinned, TraceCapture{kepler.K20cDevice(), p}.Key(), sum)
	}
}

// TestTraceDigestsOtherProfiles: the probe's captures on the profiles
// other than the K20c encode to their pinned digests.
func TestTraceDigestsOtherProfiles(t *testing.T) {
	pinned := pinnedDigests(t)
	var others []TraceCapture
	for _, c := range DigestCaptures(suites.All()) {
		if c.Device.Name != kepler.K20cDevice().Name {
			others = append(others, c)
		}
	}
	if len(others) != len(kepler.Devices())-1 {
		t.Fatalf("%d captures off the K20c, want one per other profile (%d)", len(others), len(kepler.Devices())-1)
	}
	sums, err := TraceDigests(context.Background(), others)
	if err != nil {
		t.Fatal(err)
	}
	for key, sum := range sums {
		checkDigest(t, pinned, key, sum)
	}
}

// TestWriteTraceDigestsRefusesChangeWithoutBump: rewriting a digest file
// may add or drop traces, but changing a pinned digest needs a capture
// version above the file's.
func TestWriteTraceDigestsRefusesChangeWithoutBump(t *testing.T) {
	path := filepath.Join(t.TempDir(), DigestFileName)
	a, b, c := "K20c/NB/1m", "K20c/NN/42k", "GTX1080/R-BFS/1m"
	first := map[string]string{b: strings.Repeat("b", 64), a: strings.Repeat("a", 64)}
	if err := WriteTraceDigests(path, first); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("capture-version %d\n%s %s\n%s %s\n", core.CaptureVersion, a, first[a], b, first[b])
	if got := mustRead(t, path); got != want {
		t.Fatalf("digest file:\n%s\nwant:\n%s", got, want)
	}
	if version, got := readDigests(t, path); version != core.CaptureVersion || !maps.Equal(got, first) {
		t.Fatalf("round trip: version %d, %v; want %d, %v", version, got, core.CaptureVersion, first)
	}
	second := map[string]string{a: first[a], c: strings.Repeat("c", 64)}
	if err := WriteTraceDigests(path, second); err != nil {
		t.Errorf("adding and dropping traces refused: %v", err)
	}
	moved := map[string]string{a: strings.Repeat("d", 64), c: second[c]}
	err := WriteTraceDigests(path, moved)
	if err == nil || !strings.Contains(err.Error(), a) {
		t.Fatalf("changed digest at the same capture version: err %v, want a refusal naming %s", err, a)
	}
	if _, got := readDigests(t, path); !maps.Equal(got, second) {
		t.Errorf("refused write changed the file: %v", got)
	}

	// A file from an older capture version is rewritten.
	header := func(v int) string { return "capture-version " + strconv.Itoa(v) + "\n" }
	doc := strings.Replace(mustRead(t, path), header(core.CaptureVersion), header(core.CaptureVersion-1), 1)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceDigests(path, moved); err != nil {
		t.Errorf("changed digest over an older capture version refused: %v", err)
	}
	if _, got := readDigests(t, path); !maps.Equal(got, moved) {
		t.Errorf("rewrite over an older capture version wrote %v, want %v", got, moved)
	}
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
