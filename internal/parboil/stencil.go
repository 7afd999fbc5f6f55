package parboil

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Stencil is Parboil's iterative 7-point Jacobi stencil on a regular 3-D
// grid: each cell becomes a weighted sum of itself and its six face
// neighbors. Streaming loads/stores with little arithmetic — bandwidth
// bound, so strongly hit by the 324 MHz memory clock and by ECC.
type Stencil struct{ core.Meta }

// NewStencil constructs the 3-D stencil benchmark.
func NewStencil() *Stencil {
	return &Stencil{core.Meta{
		ProgName:   "STEN",
		ProgSuite:  core.SuiteParboil,
		Desc:       "iterative 7-point Jacobi stencil on a 3-D grid",
		Kernels:    1,
		InputNames: []string{"small"},
		Default:    "small",
	}}
}

const (
	stenDim   = 64 // simulated edge (the paper's small input is 128^3); a multiple of the warp width so rows coalesce
	stenIters = 4  // real sweeps; the rest replay
	stenTotal = 100
	stenScale = 1500.0 // (128^3/64^3) input ratio times the harness iteration count
	c0, c1    = 0.5, 0.5 / 6
)

// Run smooths a random grid and validates two full sweeps against a
// sequential reference.
func (p *Stencil) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(stenScale)

	n := stenDim * stenDim * stenDim
	rng := xrand.New(xrand.HashString("stencil"))
	src := make([]float32, n)
	for i := range src {
		src[i] = rng.Float32()
	}
	orig := make([]float32, n)
	copy(orig, src)
	dst := make([]float32, n)

	dSrc := dev.NewArray(n, 4)
	dDst := dev.NewArray(n, 4)

	idx := func(x, y, z int) int { return (z*stenDim+y)*stenDim + x }
	var last sim.LaunchID
	cur, nxt := src, dst
	for it := 0; it < stenIters; it++ {
		cc, nn := cur, nxt
		last = dev.Launch("block2D_hybrid_coarsen_x", (n+127)/128, 128, func(c *sim.Ctx) {
			i := c.TID()
			if i >= n {
				return
			}
			z := i / (stenDim * stenDim)
			y := (i / stenDim) % stenDim
			x := i % stenDim
			if x == 0 || y == 0 || z == 0 || x == stenDim-1 || y == stenDim-1 || z == stenDim-1 {
				nn[i] = cc[i] // boundary held fixed
				c.Load(dSrc.At(i), 4)
				c.Store(dDst.At(i), 4)
				return
			}
			v := c0*cc[i] + c1*(cc[idx(x-1, y, z)]+cc[idx(x+1, y, z)]+
				cc[idx(x, y-1, z)]+cc[idx(x, y+1, z)]+
				cc[idx(x, y, z-1)]+cc[idx(x, y, z+1)])
			nn[i] = v
			// x-neighbors share segments; y/z neighbors are strided rows.
			c.Load(dSrc.At(i), 4)
			c.Load(dSrc.At(idx(x, y-1, z)), 4)
			c.Load(dSrc.At(idx(x, y+1, z)), 4)
			c.Load(dSrc.At(idx(x, y, z-1)), 4)
			c.Load(dSrc.At(idx(x, y, z+1)), 4)
			c.FP32Ops(8)
			c.IntOps(10)
			c.Store(dDst.At(i), 4)
		})
		cur, nxt = nxt, cur
	}
	if stenTotal > stenIters {
		dev.Repeat(last, stenTotal-stenIters+1)
	}

	// Validate the convergence property: smoothing must reduce the
	// interior variance.
	if varOf(cur, stenDim) >= varOf(orig, stenDim) {
		return core.Validatef(p.Name(), "smoothing did not reduce variance")
	}
	// Validate exactness against a sequential replay of all sweeps.
	ref4 := reference(orig, stenDim, stenIters)
	for _, i := range []int{idx(5, 7, 9), idx(20, 20, 20), idx(62, 1, 33)} {
		if math.Abs(float64(cur[i]-ref4[i])) > 1e-5 {
			return core.Validatef(p.Name(), "cell %d = %g, want %g", i, cur[i], ref4[i])
		}
	}
	return nil
}

// reference runs iters sequential sweeps.
func reference(orig []float32, d, iters int) []float32 {
	idx := func(x, y, z int) int { return (z*d+y)*d + x }
	a := make([]float32, len(orig))
	b := make([]float32, len(orig))
	copy(a, orig)
	for it := 0; it < iters; it++ {
		for z := 0; z < d; z++ {
			for y := 0; y < d; y++ {
				for x := 0; x < d; x++ {
					i := idx(x, y, z)
					if x == 0 || y == 0 || z == 0 || x == d-1 || y == d-1 || z == d-1 {
						b[i] = a[i]
						continue
					}
					b[i] = c0*a[i] + c1*(a[idx(x-1, y, z)]+a[idx(x+1, y, z)]+
						a[idx(x, y-1, z)]+a[idx(x, y+1, z)]+
						a[idx(x, y, z-1)]+a[idx(x, y, z+1)])
				}
			}
		}
		a, b = b, a
	}
	return a
}

func varOf(g []float32, d int) float64 {
	var sum, sum2 float64
	n := 0
	for z := 1; z < d-1; z++ {
		for y := 1; y < d-1; y++ {
			for x := 1; x < d-1; x++ {
				v := float64(g[(z*d+y)*d+x])
				sum += v
				sum2 += v * v
				n++
			}
		}
	}
	mean := sum / float64(n)
	return sum2/float64(n) - mean*mean
}
