package lonestar

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
		t.Fatalf("Lonestar suite has %d programs, want 7", len(progs))
	}
	wantKernels := map[string]int{
		"BH": 9, "L-BFS": 5, "DMR": 4, "MST": 7, "PTA": 40, "SSSP": 2, "NSP": 3,
	}
	for _, p := range progs {
		if p.Suite() != core.SuiteLonestar {
			t.Errorf("%s: suite %s", p.Name(), p.Suite())
		}
		if !p.Irregular() {
			t.Errorf("%s: Lonestar codes are irregular", p.Name())
		}
		if k, ok := wantKernels[p.Name()]; !ok || p.KernelCount() != k {
			t.Errorf("%s: kernels = %d, want %d (Table 1)", p.Name(), p.KernelCount(), wantKernels[p.Name()])
		}
	}
	if len(Variants()) != 6 {
		t.Fatalf("want 6 variants")
	}
}

// smallInput returns a fast input per program for tests.
func smallInput(p core.Program) string {
	switch p.(type) {
	case *BH:
		return "1m-1" // fewest timesteps
	case *LBFS, *SSSP, *MST:
		return "lakes"
	case *DMR:
		return "250k"
	case *PTA:
		return "vim"
	case *NSP:
		return "16800-4000-3"
	}
	return p.DefaultInput()
}

func TestAllRunAndValidate(t *testing.T) {
	progs := append(Programs(), Variants()...)
	for _, p := range progs {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			dev, err := simulate(p, smallInput(p), kepler.Default)
			if err != nil {
				t.Fatal(err)
			}
			if dev.ActiveTime() <= 0 {
				t.Fatal("no active time")
			}
		})
	}
}

func TestVariantInterfaces(t *testing.T) {
	for _, p := range Variants() {
		v, ok := p.(core.Variant)
		if !ok {
			t.Fatalf("%s does not implement core.Variant", p.Name())
		}
		if v.BaseName() != "L-BFS" && v.BaseName() != "SSSP" {
			t.Errorf("%s: base %s", p.Name(), v.BaseName())
		}
	}
}

func TestIterationCountsConfigIndependent(t *testing.T) {
	// The atomic BFS flavor relies on in-place propagation in block order,
	// so its launch count (iterations) follows the block order. That order
	// reads no clock, so the count is the same at every configuration.
	p := NewLBFSAtomic()
	counts := map[string]int{}
	for _, clk := range kepler.Configs {
		dev, err := simulate(p, "lakes", clk)
		if err != nil {
			t.Fatal(err)
		}
		counts[clk.Name] = len(dev.Launches)
	}
	for name, n := range counts {
		if n != counts[kepler.Default.Name] {
			t.Errorf("launch counts differ across configs: %v (first at %s)", counts, name)
			break
		}
	}
}

func TestCalibrationDump(t *testing.T) {
	if os.Getenv("GPUCHAR_CALIB") == "" {
		t.Skip("informational calibration dump; set GPUCHAR_CALIB=1 to run")
	}
	progs := append(Programs(), Variants()...)
	for _, p := range progs {
		for _, clk := range kepler.Configs {
			dev, err := simulate(p, p.DefaultInput(), clk)
			if err != nil {
				t.Fatalf("%s@%s: %v", p.Name(), clk.Name, err)
			}
			at := dev.ActiveTime()
			e := power.ActiveEnergy(dev)
			fmt.Printf("%-14s %-8s active %8.2f s  power %7.2f W  launches %d\n",
				p.Name(), clk.Name, at, e/at, len(dev.Launches))
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
