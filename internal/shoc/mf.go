package shoc

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
)

// MF is SHOC's MaxFlops: a series of microkernels that each saturate one
// floating-point issue pattern (add, multiply, multiply-add, and a mixed
// madd+mul sequence, in both precisions). It exists purely to measure peak
// arithmetic throughput, which makes it the peak-power code of the suite
// and the paper's best energy saver at the 614 MHz configuration (-14.3%
// energy for only +1% runtime).
type MF struct{ core.Meta }

// NewMF constructs the MaxFlops benchmark.
func NewMF() *MF {
	return &MF{core.Meta{
		ProgName:   "MF",
		ProgSuite:  core.SuiteSHOC,
		Desc:       "peak floating-point throughput microkernels",
		Kernels:    20,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

const (
	mfThreads = 1 << 17
	mfInner   = 240 // fused ops per thread per kernel
	mfScale   = 90.0
	mfPasses  = 28
)

// Run executes the microkernel series and validates that the arithmetic
// chains produce the analytically expected values.
func (p *MF) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(mfScale)

	dOut := dev.NewArray(mfThreads, 4)

	// Each microkernel computes a chain whose closed form we can check.
	type micro struct {
		name string
		fp64 bool
		sfu  bool
	}
	kernels := []micro{
		{"Add1", false, false}, {"Add2", false, false}, {"Add4", false, false}, {"Add8", false, false},
		{"Mul1", false, false}, {"Mul2", false, false}, {"Mul4", false, false}, {"Mul8", false, false},
		{"MAdd1", false, false}, {"MAdd2", false, false}, {"MAdd4", false, false}, {"MAdd8", false, false},
		{"MulMAdd1", false, false}, {"MulMAdd2", false, false},
		{"Add1_DP", true, false}, {"Mul1_DP", true, false}, {"MAdd1_DP", true, false}, {"MulMAdd1_DP", true, false},
		{"Sqrt", false, true}, {"Exp", false, true},
	}
	// A thread's chain depends only on TID()%7, so the seven distinct
	// values are computed once here rather than once per thread.
	chain := mfChainTable()
	var firstResult float64
	for ki, k := range kernels {
		k := k
		ki := ki
		l := dev.Launch(k.name, mfThreads/256, 256, func(c *sim.Ctx) {
			x := chain[c.TID()%7]
			if k.sfu {
				x = math.Sqrt(x * x)
			}
			if c.TID() == 0 && ki == 0 {
				firstResult = x
			}
			switch {
			case k.sfu:
				c.SFUOps(mfInner / 2)
				c.FP32Ops(mfInner)
			case k.fp64:
				c.FP64Ops(2 * mfInner)
			default:
				c.FP32Ops(2 * mfInner)
			}
			c.IntOps(6)
			c.Store(dOut.At(c.TID()), 4)
		})
		dev.Repeat(l, mfPasses)
	}

	// Validate the chain: x_{n+1} = 1.01 x_n - 0.01 has fixed point 1, so
	// starting near 1 the result must stay very close to 1.
	if math.Abs(firstResult-1) > 1e-5 {
		return core.Validatef(p.Name(), "arithmetic chain diverged: %g", firstResult)
	}
	return nil
}

// mfChainTable returns the arithmetic chain of each thread residue r = tid%7:
// x starts at 1 + r*1e-9 and applies x = x*1.01 - 0.01 (fixed point at 1)
// mfInner times, which stays bounded and checkable.
func mfChainTable() [7]float64 {
	var chain [7]float64
	for r := range chain {
		x := 1.0 + float64(r)*1e-9
		for it := 0; it < mfInner; it++ {
			x = x*1.01 - 0.01
		}
		chain[r] = x
	}
	return chain
}
