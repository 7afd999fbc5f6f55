package check

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/sim"
)

// DigestFileName is the trace-digest file cmd/goldengen writes beside the
// golden corpus's suite files: a "capture-version N" line, then one
// "<device>/<program>/<input> <sha256>" line per pinned trace.
const DigestFileName = "traces.sha256"

// TraceCapture is one pinned launch trace: Program at its default input on
// Device.
type TraceCapture struct {
	Device  *kepler.Device
	Program core.Program
}

// Key names the capture in the digest file.
func (c TraceCapture) Key() string {
	return c.Device.Name + "/" + c.Program.Name() + "/" + c.Program.DefaultInput()
}

// DigestCaptures lists the pinned captures: every program on the K20c and,
// when programs include it, R-BFS (an irregular code that captures in tens
// of milliseconds) on every other profile.
func DigestCaptures(programs []core.Program) []TraceCapture {
	var cs []TraceCapture
	for _, p := range programs {
		for _, d := range kepler.Devices() {
			if d.Name == kepler.K20cDevice().Name || p.Name() == "R-BFS" {
				cs = append(cs, TraceCapture{d, p})
			}
		}
	}
	return cs
}

// TraceDigest returns the sha256 of a trace's wire encoding
// (sim.EncodeTrace) in hex. A change to anything a capture records — a
// KernelStats counter, a block's cycles, the launch, gap or repeat
// structure — changes it.
func TraceDigest(tr *sim.LaunchTrace) (string, error) {
	data, err := sim.EncodeTrace(tr)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// TraceDigests captures the listed traces one after another and returns
// their digests by key.
func TraceDigests(ctx context.Context, captures []TraceCapture) (map[string]string, error) {
	sums := make(map[string]string, len(captures))
	for _, c := range captures {
		gpu := sim.NewGPU(c.Device)
		if err := core.RunProgram(ctx, c.Program, gpu, c.Program.DefaultInput()); err != nil {
			return nil, fmt.Errorf("check: capturing %s: %w", c.Key(), err)
		}
		sum, err := TraceDigest(gpu.Trace())
		if err != nil {
			return nil, err
		}
		sums[c.Key()] = sum
	}
	return sums, nil
}

// WriteTraceDigests writes sums to path at core.CaptureVersion, in key
// order. It refuses to change a digest the file pins at the same capture
// version: a changed capture must bump core.CaptureVersion, so no trace
// directory written before the change is read after it.
func WriteTraceDigests(path string, sums map[string]string) error {
	old, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	lines := []string{fmt.Sprintf("capture-version %d", core.CaptureVersion)}
	for key, sum := range sums {
		lines = append(lines, key+" "+sum)
	}
	slices.Sort(lines[1:])
	var changed []string
	if pinned := strings.Split(string(old), "\n"); pinned[0] == lines[0] {
		for _, line := range pinned[1:] {
			key, sum, _ := strings.Cut(line, " ")
			if now, ok := sums[key]; ok && now != sum {
				changed = append(changed, key)
			}
		}
	}
	if len(changed) > 0 {
		return fmt.Errorf("check: %d trace digests pinned at capture version %d changed (%s): bump core.CaptureVersion",
			len(changed), core.CaptureVersion, strings.Join(changed, ", "))
	}
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
