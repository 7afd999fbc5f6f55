package rodinia

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// BP is Rodinia's back propagation: one forward and one backward pass of a
// two-layer neural network. The forward pass is a matrix-vector product via
// shared-memory partial sums; the weight-update pass writes the large weight
// matrix with strided (partially uncoalesced) accesses — memory bound.
type BP struct{ core.Meta }

// NewBP constructs the back-propagation benchmark.
func NewBP() *BP {
	return &BP{core.Meta{
		ProgName:   "BP",
		ProgSuite:  core.SuiteRodinia,
		Desc:       "neural-network back propagation (2-layer)",
		Kernels:    2,
		InputNames: []string{"2^17"},
		Default:    "2^17",
	}}
}

const (
	bpIn     = 1 << 15 // simulated input-layer units (the paper's is 2^17)
	bpHid    = 16
	bpEta    = 0.3
	bpScale  = 4.0 * 40 // input ratio x harness repeats
	bpPasses = 60
)

// Run trains one step and validates the forward activations and weight
// updates against a sequential reference.
func (p *BP) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(bpScale)

	rng := xrand.New(xrand.HashString("backprop"))
	in := make([]float32, bpIn)
	w := make([]float32, bpIn*bpHid) // input-to-hidden weights
	for i := range in {
		in[i] = rng.Float32()
	}
	for i := range w {
		w[i] = rng.Float32() - 0.5
	}
	wRef := make([]float32, len(w))
	copy(wRef, w)

	dIn := dev.NewArray(bpIn, 4)
	dW := dev.NewArray(bpIn*bpHid, 4)
	dHid := dev.NewArray(bpHid, 4)

	// Kernel 1: layer forward — each block reduces a slice of input*weight
	// products into partial hidden sums. Ordered: every thread accumulates
	// into the shared float64 hidden sums, a block-order-dependent effect.
	hidden := make([]float64, bpHid)
	l1 := dev.LaunchSharedOrdered("bpnn_layerforward_CUDA", bpIn/256, 256, bpHid*256/16*4, func(c *sim.Ctx) {
		i := c.TID()
		c.Load(dIn.At(i), 4)
		for j := 0; j < bpHid; j++ {
			hidden[j] += float64(in[i] * w[i*bpHid+j])
			// The weight row: stride bpHid between consecutive threads.
			c.Load(dW.At(i*bpHid+j), 4)
		}
		c.FP32Ops(2 * bpHid)
		c.SharedAccessRep(uint64(c.Thread%16*4), bpHid)
		c.SyncThreads()
		c.IntOps(10)
		if c.Thread == 0 {
			c.Store(dHid.At(c.Block%bpHid), 4)
		}
	})
	dev.Repeat(l1, bpPasses)

	act := make([]float64, bpHid)
	for j := 0; j < bpHid; j++ {
		act[j] = 1 / (1 + math.Exp(-hidden[j]))
	}
	// Host computes the output error; delta per hidden unit.
	delta := make([]float64, bpHid)
	for j := 0; j < bpHid; j++ {
		delta[j] = act[j] * (1 - act[j]) * (0.5 - act[j])
	}

	// Kernel 2: weight adjustment (the strided writes dominate).
	l2 := dev.Launch("bpnn_adjust_weights_cuda", bpIn/256, 256, func(c *sim.Ctx) {
		i := c.TID()
		c.Load(dIn.At(i), 4)
		for j := 0; j < bpHid; j++ {
			w[i*bpHid+j] += float32(bpEta * delta[j] * float64(in[i]))
			c.Load(dW.At(i*bpHid+j), 4)
			c.Store(dW.At(i*bpHid+j), 4)
		}
		c.FP32Ops(3 * bpHid)
		c.IntOps(8)
	})
	dev.Repeat(l2, bpPasses)

	// Reference: recompute hidden sums and weight updates sequentially.
	refHidden := make([]float64, bpHid)
	for i := 0; i < bpIn; i++ {
		for j := 0; j < bpHid; j++ {
			refHidden[j] += float64(in[i] * wRef[i*bpHid+j])
		}
	}
	for j := 0; j < bpHid; j++ {
		if math.Abs(refHidden[j]-hidden[j]) > 1e-6*(math.Abs(refHidden[j])+1) {
			return core.Validatef(p.Name(), "hidden[%d] = %g, want %g", j, hidden[j], refHidden[j])
		}
	}
	for _, i := range []int{0, bpIn / 2, bpIn - 1} {
		for j := 0; j < bpHid; j++ {
			want := wRef[i*bpHid+j] + float32(bpEta*delta[j]*float64(in[i]))
			if math.Abs(float64(w[i*bpHid+j]-want)) > 1e-6 {
				return core.Validatef(p.Name(), "w[%d,%d] = %g, want %g", i, j, w[i*bpHid+j], want)
			}
		}
	}
	return nil
}
