package shoc

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// S2D is SHOC's Stencil2D: an iterative 9-point single-precision stencil on
// a 2-D grid, tiled through shared memory. Pure streaming bandwidth.
type S2D struct{ core.Meta }

// NewS2D constructs the 2-D stencil benchmark.
func NewS2D() *S2D {
	return &S2D{core.Meta{
		ProgName:   "S2D",
		ProgSuite:  core.SuiteSHOC,
		Desc:       "9-point 2-D stencil, single precision",
		Kernels:    1,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

const (
	s2dDim    = 512 // simulated grid edge (multiple of the warp width)
	s2dIters  = 3   // real sweeps; the rest replay
	s2dTotal  = 1000
	s2dScale  = 330.0
	s2dCenter = 0.5
	s2dEdge   = 0.3 / 4
	s2dCorner = 0.2 / 4
)

// Run smooths the grid and validates against a sequential replay.
func (p *S2D) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(s2dScale)

	n := s2dDim * s2dDim
	rng := xrand.New(xrand.HashString("stencil2d"))
	grid := make([]float32, n)
	for i := range grid {
		grid[i] = rng.Float32()
	}
	orig := append([]float32(nil), grid...)
	next := make([]float32, n)

	dA := dev.NewArray(n, 4)
	dB := dev.NewArray(n, 4)

	idx := func(x, y int) int { return y*s2dDim + x }
	var last sim.LaunchID
	cur, nxt := grid, next
	for it := 0; it < s2dIters; it++ {
		cc, nn := cur, nxt
		last = dev.LaunchShared("StencilKernel", (n+255)/256, 256, 18*66*4, func(c *sim.Ctx) {
			i := c.TID()
			if i >= n {
				return
			}
			y := i / s2dDim
			x := i % s2dDim
			if x == 0 || y == 0 || x == s2dDim-1 || y == s2dDim-1 {
				nn[i] = cc[i]
				c.Load(dA.At(i), 4)
				c.Store(dB.At(i), 4)
				return
			}
			v := s2dCenter*cc[i] +
				s2dEdge*(cc[idx(x-1, y)]+cc[idx(x+1, y)]+cc[idx(x, y-1)]+cc[idx(x, y+1)]) +
				s2dCorner*(cc[idx(x-1, y-1)]+cc[idx(x+1, y-1)]+cc[idx(x-1, y+1)]+cc[idx(x+1, y+1)])
			nn[i] = v
			// Tiled: load own cell plus the two halo rows; corners come from
			// shared memory.
			c.Load(dA.At(i), 4)
			c.Load(dA.At(idx(x, y-1)), 4)
			c.Load(dA.At(idx(x, y+1)), 4)
			c.SharedAccessRep(uint64(c.Thread*4), 8)
			c.FP32Ops(13)
			c.IntOps(8)
			c.SyncThreads()
			c.Store(dB.At(i), 4)
		})
		cur, nxt = nxt, cur
	}
	if s2dTotal > s2dIters {
		dev.Repeat(last, s2dTotal-s2dIters+1)
	}

	// Sequential reference replay of the simulated sweeps.
	a := append([]float32(nil), orig...)
	b := make([]float32, n)
	for it := 0; it < s2dIters; it++ {
		for y := 0; y < s2dDim; y++ {
			for x := 0; x < s2dDim; x++ {
				i := idx(x, y)
				if x == 0 || y == 0 || x == s2dDim-1 || y == s2dDim-1 {
					b[i] = a[i]
					continue
				}
				b[i] = s2dCenter*a[i] +
					s2dEdge*(a[idx(x-1, y)]+a[idx(x+1, y)]+a[idx(x, y-1)]+a[idx(x, y+1)]) +
					s2dCorner*(a[idx(x-1, y-1)]+a[idx(x+1, y-1)]+a[idx(x-1, y+1)]+a[idx(x+1, y+1)])
			}
		}
		a, b = b, a
	}
	for _, i := range []int{idx(5, 9), idx(250, 250), idx(510, 3)} {
		if math.Abs(float64(cur[i]-a[i])) > 1e-6 {
			return core.Validatef(p.Name(), "cell %d = %g, want %g", i, cur[i], a[i])
		}
	}
	return nil
}
