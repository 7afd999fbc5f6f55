package parboil

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
	if len(progs) != 9 {
		t.Fatalf("Parboil suite has %d programs, want 9", len(progs))
	}
	wantKernels := map[string]int{
		"P-BFS": 3, "CUTCP": 1, "HISTO": 4, "LBM": 1, "MRIQ": 2,
		"SAD": 3, "SGEMM": 1, "STEN": 1, "TPACF": 1,
	}
	for _, p := range progs {
		if p.Suite() != core.SuiteParboil {
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

func TestLBMInputsDiffer(t *testing.T) {
	p := NewLBM()
	short, err := simulate(p, "100", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	long, err := simulate(p, "3000", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	// The short input carries a 4x harness-loop boost so it stays
	// measurable; the 3000-step input must still be much longer.
	if long.ActiveTime() < 5*short.ActiveTime() {
		t.Errorf("3000-step input %.1fs not much longer than 100-step %.1fs",
			long.ActiveTime(), short.ActiveTime())
	}
}

func TestPBFSItems(t *testing.T) {
	v, e := NewPBFS().Items("bay")
	if v < 10000 || e < 2*v {
		t.Errorf("items = %d vertices %d edges; implausible road graph", v, e)
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

// simulate runs p with the input on a GPU of clk's device and prices the
// run at clk.
func simulate(p core.Program, input string, clk kepler.Clocks) (*sim.Device, error) {
	gpu := sim.NewGPU(clk.Device())
	if err := p.Run(context.Background(), gpu, input); err != nil {
		return nil, err
	}
	return gpu.Trace().Replay(clk)
}
