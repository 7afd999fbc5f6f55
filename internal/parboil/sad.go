package parboil

import (
	"context"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// SAD is Parboil's sum-of-absolute-differences kernel from MPEG video
// encoding: for every 16x16 macroblock of the current frame, compute the
// SAD against every candidate position in a search window of the reference
// frame, then reduce to larger block sizes. Integer-dominated with good
// locality.
type SAD struct{ core.Meta }

// NewSAD constructs the SAD benchmark.
func NewSAD() *SAD {
	return &SAD{core.Meta{
		ProgName:   "SAD",
		ProgSuite:  core.SuiteParboil,
		Desc:       "sum of absolute differences for MPEG motion estimation",
		Kernels:    3,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

const (
	sadW, sadH = 128, 96 // simulated frame (the paper's is CIF-sized)
	sadBlock   = 16
	sadRange   = 8 // search +-range
	sadScale   = 2600.0
	sadPasses  = 60
)

// Run computes motion-estimation SADs and validates the best candidate of
// sampled macroblocks against a reference search.
func (p *SAD) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(sadScale)

	rng := xrand.New(xrand.HashString("sad"))
	cur := make([]uint8, sadW*sadH)
	ref := make([]uint8, sadW*sadH)
	for i := range cur {
		cur[i] = uint8(rng.Intn(256))
	}
	// Reference frame: the current frame shifted by (3,2) plus noise, so
	// motion estimation has a meaningful optimum.
	for y := 0; y < sadH; y++ {
		for x := 0; x < sadW; x++ {
			sx, sy := x+3, y+2
			v := uint8(rng.Intn(12))
			if sx < sadW && sy < sadH {
				v += cur[sy*sadW+sx] / 2
			}
			ref[y*sadW+x] = v
		}
	}

	mbX := sadW / sadBlock
	mbY := sadH / sadBlock
	nMB := mbX * mbY
	cands := (2*sadRange + 1) * (2*sadRange + 1)

	dCur := dev.NewArray(sadW*sadH, 1)
	dRef := dev.NewArray(sadW*sadH, 1)
	dSad := dev.NewArray(nMB*cands, 4)

	sads := make([]uint32, nMB*cands)

	// Kernel 1: 16x16 SAD for every macroblock and candidate.
	l1 := dev.Launch("mb_sad_calc", nMB, cands, func(c *sim.Ctx) {
		mb := c.Block
		cand := c.Thread
		if cand >= cands {
			return
		}
		bx := (mb % mbX) * sadBlock
		by := (mb / mbX) * sadBlock
		dx := cand%(2*sadRange+1) - sadRange
		dy := cand/(2*sadRange+1) - sadRange
		var sum uint32
		for yy := 0; yy < sadBlock; yy++ {
			for xx := 0; xx < sadBlock; xx++ {
				cx, cy := bx+xx, by+yy
				rx, ry := cx+dx, cy+dy
				cv := int32(cur[cy*sadW+cx])
				var rv int32
				if rx >= 0 && ry >= 0 && rx < sadW && ry < sadH {
					rv = int32(ref[ry*sadW+rx])
				}
				d := cv - rv
				if d < 0 {
					d = -d
				}
				sum += uint32(d)
			}
		}
		sads[mb*cands+cand] = sum
		// Texture reads of cur/ref rows plus the |a-b| adds.
		c.LoadRep(dCur.At(by*sadW+bx), 16, sadBlock)
		c.LoadRep(dRef.At((by+dy)*sadW+bx), 16, sadBlock)
		c.IntOps(sadBlock * sadBlock * 3)
		c.Store(dSad.At(mb*cands+cand), 4)
	})
	dev.Repeat(l1, sadPasses)

	// Kernels 2 and 3: reductions to 32x32 and 64x64 block SADs
	// (hierarchical combination, as in Parboil).
	l2 := dev.Launch("sad_calc_8", (nMB*cands+255)/256, 256, func(c *sim.Ctx) {
		i := c.TID()
		if i >= nMB*cands {
			return
		}
		// Combines four 8x8 SADs into 16x16 entries: four streaming reads
		// per output plus the adds.
		c.LoadRep(dSad.At(i), 4, 4)
		c.IntOps(14)
		c.Store(dSad.At(i), 4)
	})
	dev.Repeat(l2, sadPasses)
	l3 := dev.Launch("sad_calc_16", (nMB*cands+255)/256, 256, func(c *sim.Ctx) {
		i := c.TID()
		if i >= nMB*cands {
			return
		}
		c.LoadRep(dSad.At(i), 4, 4)
		c.IntOps(14)
		c.Store(dSad.At(i), 4)
	})
	dev.Repeat(l3, sadPasses)

	// Validate: for sampled macroblocks the argmin must match a reference
	// search, and since ref ~ cur shifted by (3,2), the winning displacement
	// for interior blocks should be exactly that shift.
	for _, mb := range []int{0, nMB / 2, nMB - 1} {
		best, bestCand := ^uint32(0), -1
		for cand := 0; cand < cands; cand++ {
			if sads[mb*cands+cand] < best {
				best = sads[mb*cands+cand]
				bestCand = cand
			}
		}
		// Reference recompute of the winner.
		bx := (mb % mbX) * sadBlock
		by := (mb / mbX) * sadBlock
		dx := bestCand%(2*sadRange+1) - sadRange
		dy := bestCand/(2*sadRange+1) - sadRange
		var want uint32
		for yy := 0; yy < sadBlock; yy++ {
			for xx := 0; xx < sadBlock; xx++ {
				cx, cy := bx+xx, by+yy
				rx, ry := cx+dx, cy+dy
				cv := int32(cur[cy*sadW+cx])
				var rv int32
				if rx >= 0 && ry >= 0 && rx < sadW && ry < sadH {
					rv = int32(ref[ry*sadW+rx])
				}
				d := cv - rv
				if d < 0 {
					d = -d
				}
				want += uint32(d)
			}
		}
		if best != want {
			return core.Validatef(p.Name(), "macroblock %d best SAD %d, recompute %d", mb, best, want)
		}
	}
	return nil
}
