package check

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/sim"
	"repro/internal/suites"
)

// TestEveryProgramCapturesReplayableTrace runs every studied program (and
// every variant) on a K20c GPU and asserts its trace records launches and
// replays at another configuration.
func TestEveryProgramCapturesReplayableTrace(t *testing.T) {
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
	}
}
