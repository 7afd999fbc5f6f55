package shoc

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sim"
)

func TestProgramsMetadata(t *testing.T) {
	progs := Programs()
	if len(progs) != 7 {
		t.Fatalf("SHOC suite has %d programs, want 7", len(progs))
	}
	wantKernels := map[string]int{
		"S-BFS": 9, "FFT": 2, "MF": 20, "MD": 1, "QTC": 6, "ST": 5, "S2D": 1,
	}
	for _, p := range progs {
		if p.Suite() != core.SuiteSHOC {
			t.Errorf("%s: suite %s", p.Name(), p.Suite())
		}
		if k, ok := wantKernels[p.Name()]; !ok || p.KernelCount() != k {
			t.Errorf("%s: kernels = %d, want %d (Table 1)", p.Name(), p.KernelCount(), wantKernels[p.Name()])
		}
	}
}

func TestAllRunAndValidate(t *testing.T) {
	for _, p := range Programs() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			dev, err := simulate(p, p.DefaultInput(), kepler.Default)
			if err != nil {
				t.Fatal(err)
			}
			if dev.ActiveTime() <= 0 {
				t.Fatal("no active time")
			}
		})
	}
}

func TestSBFSItems(t *testing.T) {
	v, e := NewSBFS().Items("default")
	if v <= 0 || e <= 0 {
		t.Fatal("no items")
	}
}

func TestCalibrationDump(t *testing.T) {
	if os.Getenv("GPUCHAR_CALIB") == "" {
		t.Skip("informational calibration dump; set GPUCHAR_CALIB=1 to run")
	}
	for _, p := range Programs() {
		for _, clk := range kepler.Configs {
			dev, err := simulate(p, p.DefaultInput(), clk)
			if err != nil {
				t.Fatalf("%s@%s: %v", p.Name(), clk.Name, err)
			}
			at := dev.ActiveTime()
			e := power.ActiveEnergy(dev)
			fmt.Printf("%-6s %-8s active %8.2f s  power %7.2f W\n", p.Name(), clk.Name, at, e/at)
		}
	}
}

func TestShortProgramsRunAndValidate(t *testing.T) {
	for _, p := range []core.Program{NewTriad(), NewReduction()} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			dev, err := simulate(p, p.DefaultInput(), kepler.Default)
			if err != nil {
				t.Fatal(err)
			}
			if dev.ActiveTime() > 1.0 {
				t.Errorf("%s active time %.2fs; expected well under a second", p.Name(), dev.ActiveTime())
			}
		})
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
