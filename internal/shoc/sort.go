package shoc

import (
	"context"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// ST is SHOC's radix sort of unsigned integer key/value pairs: per 4-bit
// digit pass, a histogram kernel, a scan of the histograms, and a scatter
// kernel whose writes go to data-dependent (uncoalesced) locations. The
// scatter makes the code bandwidth hungry and ECC sensitive.
type ST struct{ core.Meta }

// NewST constructs the radix-sort benchmark.
func NewST() *ST {
	return &ST{core.Meta{
		ProgName:   "ST",
		ProgSuite:  core.SuiteSHOC,
		Desc:       "radix sort of uint key/value pairs",
		Kernels:    5,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

const (
	sortN      = 1 << 18 // simulated keys (SHOC's default is larger)
	sortBits   = 4
	sortRadix  = 1 << sortBits
	sortScale  = 16.0
	sortPasses = 75
)

// Run sorts random key/value pairs and validates order and permutation.
func (p *ST) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(sortScale * sortPasses)

	rng := xrand.New(xrand.HashString("sort"))
	keys := make([]uint32, sortN)
	vals := make([]uint32, sortN)
	for i := range keys {
		keys[i] = uint32(rng.Uint64())
		vals[i] = uint32(i)
	}
	var keySum uint64
	for _, k := range keys {
		keySum += uint64(k)
	}

	dKeys := dev.NewArray(sortN, 4)
	dVals := dev.NewArray(sortN, 4)
	dKeysOut := dev.NewArray(sortN, 4)
	dValsOut := dev.NewArray(sortN, 4)
	dHist := dev.NewArray(sortRadix*256, 4)

	tmpK := make([]uint32, sortN)
	tmpV := make([]uint32, sortN)

	for shift := 0; shift < 32; shift += sortBits {
		shift := shift
		// Kernel 1: per-block digit histograms. Ordered: every block
		// increments the one shared digit histogram.
		hist := make([]int, sortRadix)
		dev.LaunchOrdered("radixSortBlocks", sortN/256, 256, func(c *sim.Ctx) {
			i := c.TID()
			d := (keys[i] >> uint(shift)) & (sortRadix - 1)
			hist[d]++
			c.Load(dKeys.At(i), 4)
			c.IntOps(6)
			c.SharedAccess(uint64(d * 4)) // bank conflicts on popular digits
			c.AtomicOp(dHist.At(int(d) + (c.Block%256)*sortRadix))
		})
		// Kernel 2: scan the histograms.
		offsets := make([]int, sortRadix)
		dev.Launch("scan", 1, 256, func(c *sim.Ctx) {
			if c.Thread == 0 {
				sum := 0
				for d := 0; d < sortRadix; d++ {
					offsets[d] = sum
					sum += hist[d]
				}
			}
			c.Load(dHist.At(c.Thread), 4)
			c.SharedAccessRep(uint64(c.Thread*4), 10)
			c.IntOps(12)
			c.Store(dHist.At(c.Thread), 4)
		})
		// Kernel 3: vector add of scanned block offsets.
		dev.Launch("vectorAddUniform4", (sortRadix*256+255)/256, 256, func(c *sim.Ctx) {
			c.Load(dHist.At(c.TID()%(sortRadix*256)), 4)
			c.IntOps(3)
			c.Store(dHist.At(c.TID()%(sortRadix*256)), 4)
		})
		// Stable ranks: element i lands at offsets[digit] plus the count of
		// earlier same-digit elements (the scan-based rank the GPU computes).
		pos := make([]int, sortN)
		cursor := append([]int(nil), offsets...)
		for i := 0; i < sortN; i++ {
			d := (keys[i] >> uint(shift)) & (sortRadix - 1)
			pos[i] = cursor[d]
			cursor[d]++
		}
		// Kernel 4: reorder (scatter) keys and values.
		dev.Launch("reorderData", sortN/256, 256, func(c *sim.Ctx) {
			i := c.TID()
			tmpK[pos[i]] = keys[i]
			tmpV[pos[i]] = vals[i]
			c.Load(dKeys.At(i), 4)
			c.Load(dVals.At(i), 4)
			c.IntOps(8)
			// Data-dependent scatter: mostly uncoalesced.
			c.Store(dKeysOut.At(pos[i]), 4)
			c.Store(dValsOut.At(pos[i]), 4)
		})
		// Kernel 5: find top digit / bucket boundaries (utility pass).
		dev.Launch("findRadixOffsets", (sortN+511)/512, 512, func(c *sim.Ctx) {
			if c.TID() < sortN {
				c.Load(dKeysOut.At(c.TID()), 4)
				c.IntOps(4)
			}
		})
		copy(keys, tmpK)
		copy(vals, tmpV)
	}

	// Validate: sorted order, key conservation, and value permutation
	// consistency (vals[i] still points at its original key).
	var sum uint64
	for i := 0; i < sortN; i++ {
		if i > 0 && keys[i-1] > keys[i] {
			return core.Validatef(p.Name(), "keys out of order at %d", i)
		}
		sum += uint64(keys[i])
	}
	if sum != keySum {
		return core.Validatef(p.Name(), "key checksum changed: %d != %d", sum, keySum)
	}
	reCheck := xrand.New(xrand.HashString("sort"))
	origKeys := make([]uint32, sortN)
	for i := range origKeys {
		origKeys[i] = uint32(reCheck.Uint64())
	}
	for _, i := range []int{0, sortN / 2, sortN - 1} {
		if origKeys[vals[i]] != keys[i] {
			return core.Validatef(p.Name(), "value %d does not track its key", i)
		}
	}
	return nil
}
