package sdk

import (
	"context"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Scan is the CUDA SDK parallel prefix sum: per-block shared-memory scans, a
// scan of the block sums, and a uniform add — three kernels, bandwidth bound
// with substantial shared-memory traffic.
type Scan struct{ core.Meta }

// NewScan constructs the prefix-sum benchmark.
func NewScan() *Scan {
	return &Scan{core.Meta{
		ProgName:   "SC",
		ProgSuite:  core.SuiteSDK,
		Desc:       "work-efficient parallel prefix sum (scan)",
		Kernels:    3,
		InputNames: []string{"2^26"},
		Default:    "2^26",
	}}
}

const (
	scanSimN   = 1 << 20 // simulated elements
	scanRealN  = 1 << 26 // the paper's input size
	scanBlock  = 256
	scanPasses = 420 // benchmark passes (the SDK app iterates for timing)
)

// Run scans a random array and validates against a sequential prefix sum.
func (p *Scan) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(float64(scanRealN) / float64(scanSimN))

	rng := xrand.New(xrand.HashString("scan"))
	in := make([]uint32, scanSimN)
	for i := range in {
		in[i] = uint32(rng.Intn(100))
	}
	out := make([]uint32, scanSimN)
	nBlocks := scanSimN / scanBlock
	blockSums := make([]uint32, nBlocks)

	dIn := dev.NewArray(scanSimN, 4)
	dOut := dev.NewArray(scanSimN, 4)
	dSums := dev.NewArray(nBlocks, 4)

	// Kernel 1: exclusive scan within each block (Blelloch-style; the
	// up/down sweep costs ~2*log2(block) shared accesses per element).
	l1 := dev.Launch("scanBlocks", nBlocks, scanBlock, func(c *sim.Ctx) {
		i := c.TID()
		c.Load(dIn.At(i), 4)
		// Host mirror: compute the block-local exclusive scan once per
		// block, thread 0 does the serial work on the mirror.
		if c.Thread == 0 {
			base := c.Block * scanBlock
			var sum uint32
			for k := 0; k < scanBlock; k++ {
				out[base+k] = sum
				sum += in[base+k]
			}
			blockSums[c.Block] = sum
		}
		c.SharedAccessRep(uint64(c.Thread*4), 16) // up+down sweep
		c.IntOps(20)
		c.SyncThreads()
		c.Store(dOut.At(i), 4)
		if c.Thread == 0 {
			c.Store(dSums.At(c.Block), 4)
		}
	})
	dev.Repeat(l1, scanPasses)

	// Kernel 2: scan of the block sums.
	sumsScanned := make([]uint32, nBlocks)
	l2 := dev.Launch("scanBlockSums", (nBlocks+scanBlock-1)/scanBlock, scanBlock, func(c *sim.Ctx) {
		i := c.TID()
		if i >= nBlocks {
			return
		}
		c.Load(dSums.At(i), 4)
		if i == 0 {
			var sum uint32
			for k := 0; k < nBlocks; k++ {
				sumsScanned[k] = sum
				sum += blockSums[k]
			}
		}
		c.SharedAccessRep(uint64(c.Thread*4), 16)
		c.IntOps(20)
		c.SyncThreads()
		c.Store(dSums.At(i), 4)
	})
	dev.Repeat(l2, scanPasses)

	// Kernel 3: add each block's offset to its elements.
	l3 := dev.Launch("uniformAdd", nBlocks, scanBlock, func(c *sim.Ctx) {
		i := c.TID()
		out[i] += sumsScanned[c.Block]
		c.Load(dSums.At(c.Block), 4)
		c.Load(dOut.At(i), 4)
		c.IntOps(2)
		c.Store(dOut.At(i), 4)
	})
	dev.Repeat(l3, scanPasses)

	// Validate against the sequential exclusive prefix sum.
	var sum uint32
	for i := 0; i < scanSimN; i++ {
		if out[i] != sum {
			return core.Validatef(p.Name(), "out[%d] = %d, want %d", i, out[i], sum)
		}
		sum += in[i]
	}
	return nil
}
