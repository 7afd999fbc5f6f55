package sdk

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// EIP is MC_EstimatePiInlineP: a Monte-Carlo estimation of pi whose PRNG is
// inlined into the sampling kernel, making the code purely compute bound:
// every thread generates its points in registers and counts hits, and a
// second kernel reduces the per-block counts.
type EIP struct{ core.Meta }

// NewEIP constructs the inline Monte-Carlo pi estimator.
func NewEIP() *EIP {
	return &EIP{core.Meta{
		ProgName:   "EIP",
		ProgSuite:  core.SuiteSDK,
		Desc:       "Monte Carlo estimation of Pi with an inline PRNG",
		Kernels:    2,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

const (
	mcThreads        = 64 * 1024
	mcSamplesPerPass = 48 // real samples drawn per thread per simulated pass
	mcBatches        = 10 // simulated kernel pairs (the SDK app runs batches)
	// Each simulated pass stands for this many real passes of the same
	// kernel (the SDK benchmark loop), via launch replay.
	eipPasses = 800
	epPasses  = 220
	// The real app draws far more samples per thread than the simulated
	// surrogate; the time scale covers the ratio.
	eipSampleScale = 28
	epBatchScale   = 30
)

// Run draws points in the unit square and counts those inside the quarter
// circle; the estimate must land near pi.
func (p *EIP) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(eipSampleScale)
	blockCounts := dev.NewArray(mcThreads/256, 4)
	result := dev.NewArray(1, 8)

	var hits, total int64
	blockHits := make([]int64, mcThreads/256)
	for batch := 0; batch < mcBatches; batch++ {
		seed := uint64(batch)*977 + 13
		clear(blockHits)
		l := dev.Launch("samplePoints", mcThreads/256, 256, func(c *sim.Ctx) {
			rng := xrand.New(seed ^ uint64(c.TID())*0x9e3779b97f4a7c15)
			h := 0
			for s := 0; s < mcSamplesPerPass; s++ {
				x := rng.Float32()
				y := rng.Float32()
				if x*x+y*y <= 1 {
					h++
				}
			}
			// PRNG (xorshift-style) is integer work; the test is fp32.
			c.IntOps(mcSamplesPerPass * 10)
			c.FP32Ops(mcSamplesPerPass * 4)
			// Block-level reduction in shared memory, then one store.
			c.SharedAccessRep(uint64(c.Thread*4), 6)
			if c.Thread == 0 {
				c.Store(blockCounts.At(c.Block), 4)
			}
			blockHits[c.Block] += int64(h)
		})
		dev.Repeat(l, eipPasses)
		hits += sum(blockHits)
		total += mcThreads * mcSamplesPerPass
		lr := dev.Launch("reduceCounts", 1, 256, func(c *sim.Ctx) {
			c.LoadRep(blockCounts.At(c.Thread), 4, 1)
			c.IntOps(4)
			c.SharedAccessRep(uint64(c.Thread*4), 8)
			if c.Thread == 0 {
				c.Store(result.At(0), 8)
			}
		})
		dev.Repeat(lr, eipPasses)
	}
	pi := 4 * float64(hits) / float64(total)
	if math.Abs(pi-math.Pi) > 0.01 {
		return core.Validatef(p.Name(), "pi estimate %f too far from pi", pi)
	}
	return nil
}

// EP is MC_EstimatePiP: the batched variant. One kernel streams batches of
// random points to global memory; a second kernel reads them back and
// counts hits, so unlike EIP a large part of the work is memory traffic.
type EP struct{ core.Meta }

// NewEP constructs the batched Monte-Carlo pi estimator.
func NewEP() *EP {
	return &EP{core.Meta{
		ProgName:   "EP",
		ProgSuite:  core.SuiteSDK,
		Desc:       "Monte Carlo estimation of Pi with batched random numbers",
		Kernels:    2,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

// Run generates point batches to memory, then counts hits from memory.
func (p *EP) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(epBatchScale)
	const n = 1 << 20 // points per batch
	xs := dev.NewArray(n, 4)
	ys := dev.NewArray(n, 4)
	pts := make([][2]float32, n)

	var hits, total int64
	blockHits := make([]int64, n/256)
	for batch := 0; batch < mcBatches; batch++ {
		seed := uint64(batch)*31337 + 7
		clear(blockHits)
		lg := dev.Launch("generatePoints", n/256, 256, func(c *sim.Ctx) {
			rng := xrand.New(seed ^ uint64(c.TID())*0x2545f4914f6cdd1d)
			x, y := rng.Float32(), rng.Float32()
			pts[c.TID()] = [2]float32{x, y}
			c.IntOps(12)
			c.Store(xs.At(c.TID()), 4)
			c.Store(ys.At(c.TID()), 4)
		})
		dev.Repeat(lg, epPasses)
		lc := dev.Launch("computeValue", n/256, 256, func(c *sim.Ctx) {
			pt := pts[c.TID()]
			if pt[0]*pt[0]+pt[1]*pt[1] <= 1 {
				blockHits[c.Block]++
			}
			c.Load(xs.At(c.TID()), 4)
			c.Load(ys.At(c.TID()), 4)
			c.FP32Ops(4)
			c.SharedAccessRep(uint64(c.Thread*4), 6)
			if c.Thread == 0 {
				c.Store(xs.At(c.Block), 4)
			}
		})
		dev.Repeat(lc, epPasses)
		hits += sum(blockHits)
		total += n
	}
	pi := 4 * float64(hits) / float64(total)
	if math.Abs(pi-math.Pi) > 0.01 {
		return core.Validatef(p.Name(), "pi estimate %f too far from pi", pi)
	}
	return nil
}

// sum returns the total of the per-block hit counts. A kernel counts into
// blockHits[c.Block] rather than a shared counter: one goroutine runs all
// threads of a block in order, so the slots need no atomics even when the
// engine shards the blocks across workers, and integer addition keeps the
// total independent of the sharding.
func sum(blockHits []int64) int64 {
	var s int64
	for _, h := range blockHits {
		s += h
	}
	return s
}
