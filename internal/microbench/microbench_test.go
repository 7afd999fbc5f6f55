package microbench_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/microbench"
	"repro/internal/sim"
	"repro/internal/suites"
)

// TestMicrobenchRunAndSelfValidate: every probe must run clean on every
// input and every device profile — each Run self-validates its own
// computation (chain cycle, store mirror, FMA result), so a nil error is
// the assertion.
func TestMicrobenchRunAndSelfValidate(t *testing.T) {
	for _, dev := range kepler.Devices() {
		clk := dev.DefaultConfig()
		for _, p := range microbench.Programs() {
			for _, input := range p.Inputs() {
				d, err := simulate(p, input, clk)
				if err != nil {
					t.Errorf("%s/%s on %s: %v", p.Name(), input, dev.Name, err)
					continue
				}
				if len(d.Launches) != 1 {
					t.Errorf("%s/%s: %d launches, want exactly 1 (calibration needs a single kernel)",
						p.Name(), input, len(d.Launches))
				}
			}
		}
	}
}

// TestMicrobenchRejectsUnknownInput: the probes validate their input names.
func TestMicrobenchRejectsUnknownInput(t *testing.T) {
	for _, p := range microbench.Programs() {
		if _, err := simulate(p, "bogus", kepler.Default); err == nil {
			t.Errorf("%s accepted input %q", p.Name(), "bogus")
		}
	}
}

// TestMicrobenchRegistryAdditive: the probes resolve by name in the suite
// registry under the microbench suite, but must NOT join the paper's
// 34-program battery — the golden corpus depends on that set staying fixed.
func TestMicrobenchRegistryAdditive(t *testing.T) {
	battery := make(map[string]bool)
	for _, p := range suites.All() {
		battery[p.Name()] = true
	}
	for _, p := range microbench.Programs() {
		got, err := suites.ByName(p.Name())
		if err != nil {
			t.Errorf("%s not in registry: %v", p.Name(), err)
			continue
		}
		if got.Suite() != core.SuiteMicro {
			t.Errorf("%s suite %v, want SuiteMicro", p.Name(), got.Suite())
		}
		if battery[p.Name()] {
			t.Errorf("%s leaked into the paper battery (suites.All)", p.Name())
		}
	}
}

// simulate runs p with the input on a GPU of clk's device and prices the
// run at clk.
func simulate(p core.Program, input string, clk kepler.Clocks) (*sim.Device, error) {
	gpu := sim.NewGPU(clk.Device())
	if err := p.Run(context.Background(), gpu, input); err != nil {
		return nil, err
	}
	return gpu.Trace().Replay(clk)
}
