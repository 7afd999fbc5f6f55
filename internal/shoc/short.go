package shoc

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Triad and Reduction are SHOC benchmarks the paper could NOT use: their
// active runtimes are so short that the on-board power sensor cannot
// collect enough samples ("Several codes from these suites could not be
// used simply because of their short runtimes even with the largest
// provided inputs", section IV.A). They are implemented here exactly like
// the studied programs — real computation, validated output — and the
// measurement stack demonstrably rejects them.

// Triad is SHOC's STREAM-triad bandwidth microbenchmark: c = a + s*b over
// a vector, a single streaming pass.
type Triad struct{ core.Meta }

// NewTriad constructs the triad microbenchmark.
func NewTriad() *Triad {
	return &Triad{core.Meta{
		ProgName:   "TRIAD",
		ProgSuite:  core.SuiteSHOC,
		Desc:       "STREAM triad bandwidth microbenchmark (too short to measure)",
		Kernels:    1,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

const triadN = 1 << 20

// Run performs the triad and validates every element.
func (p *Triad) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	rng := xrand.New(xrand.HashString("triad"))
	a := make([]float32, triadN)
	b := make([]float32, triadN)
	c := make([]float32, triadN)
	for i := range a {
		a[i] = rng.Float32()
		b[i] = rng.Float32()
	}
	const s = float32(1.75)

	dA := dev.NewArray(triadN, 4)
	dB := dev.NewArray(triadN, 4)
	dC := dev.NewArray(triadN, 4)

	// SHOC runs a handful of passes — still far too short for the sensor.
	l := dev.Launch("Triad", triadN/256, 256, func(ctx *sim.Ctx) {
		i := ctx.TID()
		c[i] = a[i] + s*b[i]
		ctx.Load(dA.At(i), 4)
		ctx.Load(dB.At(i), 4)
		ctx.FP32Ops(2)
		ctx.Store(dC.At(i), 4)
	})
	dev.Repeat(l, 20)

	for i := 0; i < triadN; i += 1000 {
		want := a[i] + s*b[i]
		if c[i] != want {
			return core.Validatef(p.Name(), "c[%d] = %g, want %g", i, c[i], want)
		}
	}
	return nil
}

// Reduction is SHOC's sum reduction: tree reduction in shared memory, then
// a final pass over block sums.
type Reduction struct{ core.Meta }

// NewReduction constructs the reduction microbenchmark.
func NewReduction() *Reduction {
	return &Reduction{core.Meta{
		ProgName:   "REDUCE",
		ProgSuite:  core.SuiteSHOC,
		Desc:       "parallel sum reduction (too short to measure)",
		Kernels:    2,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

const reduceN = 1 << 20

// Run reduces a random vector and validates the sum in float64.
func (p *Reduction) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	rng := xrand.New(xrand.HashString("reduce"))
	in := make([]float64, reduceN)
	var want float64
	for i := range in {
		in[i] = rng.Float64()
		want += in[i]
	}

	dIn := dev.NewArray(reduceN, 4)
	dSums := dev.NewArray(reduceN/256, 4)

	blockSums := make([]float64, reduceN/256)
	l := dev.LaunchShared("reduce", reduceN/256, 256, 256*4, func(ctx *sim.Ctx) {
		i := ctx.TID()
		blockSums[ctx.Block] += in[i]
		ctx.Load(dIn.At(i), 4)
		ctx.SharedAccessRep(uint64(ctx.Thread*4), 8) // log2(256) tree steps
		ctx.FP32Ops(8)
		ctx.SyncThreads()
		if ctx.Thread == 0 {
			ctx.Store(dSums.At(ctx.Block), 4)
		}
	})
	dev.Repeat(l, 16)

	var got float64
	dev.Launch("reduceFinal", 1, 256, func(ctx *sim.Ctx) {
		base := ctx.Thread
		for j := base; j < len(blockSums); j += 256 {
			got += blockSums[j]
			ctx.Load(dSums.At(j), 4)
		}
		ctx.SharedAccessRep(uint64(ctx.Thread*4), 8)
		ctx.FP32Ops(len(blockSums) / 256 * 2)
		ctx.SyncThreads()
	})

	if math.Abs(got-want) > 1e-6*want {
		return core.Validatef(p.Name(), "sum %g, want %g", got, want)
	}
	return nil
}
