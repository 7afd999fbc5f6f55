package check

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/sim"
	"repro/internal/suites"
)

// TestEveryProgramCapturesReplayableTrace captures every studied program
// (and every variant) at the default configuration and asserts the trace
// is replayable: no program reads the simulated clock mid-run, and ordered
// launches visit their blocks in a clock-free order, so a program the
// detector called sensitive would silently lose the replay speedup.
func TestEveryProgramCapturesReplayableTrace(t *testing.T) {
	for _, p := range append(suites.All(), suites.Variants()...) {
		dev := sim.NewDevice(kepler.Default)
		dev.BeginCapture()
		if err := core.RunProgram(context.Background(), p, dev, p.DefaultInput()); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		tr := dev.EndCapture()
		if tr.ClockSensitive() {
			t.Errorf("%s: capture marked clock-sensitive (%s)", p.Name(), tr.SensitiveReason())
			continue
		}
		if tr.Launches() == 0 {
			t.Errorf("%s: capture recorded no launches", p.Name())
		}
		if tr.Bytes() <= 0 {
			t.Errorf("%s: capture reports no footprint", p.Name())
		}
		if _, err := tr.Replay(kepler.F614); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// TestReplayIdentityInvariantWired: the shared full sweep must have
// evaluated the replay-identity invariant (one check per program per
// configuration) and found no violations — this is the all-34-programs x
// all-4-configs bit-identity guarantee behind `gpuchar -selfcheck`.
func TestReplayIdentityInvariantWired(t *testing.T) {
	_, rep := sharedSweep(t)
	for _, v := range rep.Violations {
		if v.Invariant == "replay-identity" {
			t.Errorf("replay-identity violation: %s", v)
		}
	}
	// The sweep's check count must include the replay-identity evaluations.
	if min := len(suites.All()) * len(kepler.Configs); rep.Checks < min {
		t.Errorf("only %d checks counted, replay-identity alone contributes %d", rep.Checks, min)
	}
}
