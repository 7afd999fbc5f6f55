package sdk

import (
	"bytes"
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
	if len(progs) != 4 {
		t.Fatalf("SDK suite has %d programs, want 4", len(progs))
	}
	wantKernels := map[string]int{"EIP": 2, "EP": 2, "NB": 1, "SC": 3}
	for _, p := range progs {
		if p.Suite() != core.SuiteSDK {
			t.Errorf("%s: suite %s", p.Name(), p.Suite())
		}
		if k, ok := wantKernels[p.Name()]; !ok || p.KernelCount() != k {
			t.Errorf("%s: kernels = %d, want %d (Table 1)", p.Name(), p.KernelCount(), k)
		}
		if len(p.Inputs()) == 0 || p.DefaultInput() == "" {
			t.Errorf("%s: missing inputs", p.Name())
		}
		if p.Irregular() {
			t.Errorf("%s: SDK codes are regular", p.Name())
		}
	}
}

func TestAllRunAndValidate(t *testing.T) {
	for _, p := range Programs() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			dev, err := simulate(p, p.DefaultInput(), kepler.Default)
			if err != nil {
				t.Fatal(err)
			}
			if len(dev.Launches) == 0 {
				t.Fatal("no kernels launched")
			}
			if dev.ActiveTime() <= 0 {
				t.Fatal("no active time")
			}
		})
	}
}

func TestNBodyAllInputs(t *testing.T) {
	p := NewNBody()
	var prev float64
	for _, in := range p.Inputs() {
		dev, err := simulate(p, in, kepler.Default)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		at := dev.ActiveTime()
		if at <= prev {
			t.Errorf("active time not increasing with input size: %s -> %.2f s (prev %.2f)", in, at, prev)
		}
		prev = at
	}
}

func TestUnknownInputRejected(t *testing.T) {
	for _, p := range Programs() {
		if _, err := simulate(p, "no-such-input", kepler.Default); err == nil {
			t.Errorf("%s: unknown input accepted", p.Name())
		}
	}
}

// TestMonteCarloShardInvariance: EP and EIP count hits in per-block slots,
// which sharded blocks write from different workers. A 1-worker and a
// 4-worker pool must produce byte-identical launch traces (every launch's
// KernelStats and block cycles) and the same validation outcome.
func TestMonteCarloShardInvariance(t *testing.T) {
	for _, p := range []core.Program{NewEP(), NewEIP()} {
		var refTrace []byte
		var refErr error
		for _, workers := range []int{1, 4} {
			gpu := sim.NewGPU(kepler.K20cDevice())
			gpu.SetWorkerPool(sim.NewWorkerPool(workers))
			runErr := p.Run(context.Background(), gpu, p.DefaultInput())
			enc, err := sim.EncodeTrace(gpu.Trace())
			if err != nil {
				t.Fatalf("%s, %d workers: %v", p.Name(), workers, err)
			}
			if workers == 1 {
				refTrace, refErr = enc, runErr
				continue
			}
			if !bytes.Equal(enc, refTrace) {
				t.Errorf("%s: the 4-worker launch trace differs from the 1-worker one", p.Name())
			}
			if fmt.Sprint(runErr) != fmt.Sprint(refErr) {
				t.Errorf("%s: validation %v with 4 workers, %v with 1", p.Name(), runErr, refErr)
			}
		}
	}
}

// TestCalibrationDump prints runtime/power per config (informational).
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
			fmt.Printf("%-4s %-8s active %8.2f s  power %7.2f W\n", p.Name(), clk.Name, at, e/at)
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
