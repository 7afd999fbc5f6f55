package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/kepler"
	"repro/internal/sim"
)

// toyProgram is a synthetic program used to calibrate and test the
// measurement stack without the real benchmarks.
type toyProgram struct {
	name     string
	suite    Suite
	run      func(dev *sim.GPU) error
	runInput func(dev *sim.GPU, input string) error
	inputs   []string
	irregul  bool
}

func (t *toyProgram) Name() string        { return t.name }
func (t *toyProgram) Suite() Suite        { return t.suite }
func (t *toyProgram) Description() string { return "toy" }
func (t *toyProgram) KernelCount() int    { return 1 }

func (t *toyProgram) Inputs() []string {
	if len(t.inputs) > 0 {
		return t.inputs
	}
	return []string{"default"}
}

func (t *toyProgram) DefaultInput() string { return t.Inputs()[0] }
func (t *toyProgram) Irregular() bool      { return t.irregul }

func (t *toyProgram) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if t.runInput != nil {
		return t.runInput(dev, input)
	}
	return t.run(dev)
}

// computeBoundToy: every thread does a long FMA loop out of registers.
func computeBoundToy(iters int) *toyProgram {
	return &toyProgram{
		name:  "toy-compute",
		suite: SuiteSDK,
		run: func(dev *sim.GPU) error {
			data := dev.NewArray(1<<20, 4)
			l := dev.Launch("fma", 4096, 256, func(c *sim.Ctx) {
				c.Load(data.At(c.TID()), 4)
				c.FP32Ops(2000)
				c.Store(data.At(c.TID()), 4)
			})
			dev.Repeat(l, iters)
			return nil
		},
	}
}

// memoryBoundToy: streaming coalesced copy.
func memoryBoundToy(iters int) *toyProgram {
	return &toyProgram{
		name:  "toy-memory",
		suite: SuiteParboil,
		run: func(dev *sim.GPU) error {
			n := 1 << 22
			src := dev.NewArray(n, 4)
			dst := dev.NewArray(n, 4)
			l := dev.Launch("copy", n/256, 256, func(c *sim.Ctx) {
				c.IntOps(4)
				c.LoadRep(src.At(c.TID()), 4, 16)
				c.StoreRep(dst.At(c.TID()), 4, 16)
			})
			dev.Repeat(l, iters)
			return nil
		},
	}
}

// irregularToy: divergent, uncoalesced gather.
func irregularToy(iters int) *toyProgram {
	return &toyProgram{
		name:  "toy-irregular",
		suite: SuiteLonestar,
		run: func(dev *sim.GPU) error {
			n := 1 << 20
			src := dev.NewArray(n, 4)
			l := dev.Launch("gather", n/256, 256, func(c *sim.Ctx) {
				tid := uint64(c.TID())
				h := tid * 2654435761 % uint64(n)
				c.IntOps(10 + int(tid%7)*4)
				for k := 0; k < 8; k++ {
					c.Load(src.At(int(h)), 4)
					h = h * 6364136223846793005 % uint64(n)
				}
			})
			dev.Repeat(l, iters)
			return nil
		},
	}
}

func TestCalibrationNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration dump")
	}
	r := NewRunner()
	progs := []*toyProgram{computeBoundToy(4000), memoryBoundToy(3000), irregularToy(3000)}
	for _, p := range progs {
		for _, clk := range kepler.Configs {
			res, err := r.Measure(context.Background(), p, "default", clk)
			if err != nil {
				fmt.Printf("%-14s %-8s ERROR %v\n", p.name, clk.Name, err)
				continue
			}
			fmt.Printf("%-14s %-8s time %8.2fs  energy %9.1fJ  power %7.2fW  (true %8.2fs %9.1fJ)\n",
				p.name, clk.Name, res.ActiveTime, res.Energy, res.AvgPower, res.TrueActiveTime, res.TrueEnergy)
		}
	}
}
