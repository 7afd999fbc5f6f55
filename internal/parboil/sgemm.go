package parboil

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// SGEMM is Parboil's register-tiled single-precision matrix multiply
// (C = A*B with B transposed in memory). Each thread computes a 4-row strip
// of outputs so that most operands stay in registers; the A tile broadcasts
// to the warp and the B tile streams coalesced. Compute bound.
type SGEMM struct{ core.Meta }

// NewSGEMM constructs the matrix-multiply benchmark.
func NewSGEMM() *SGEMM {
	return &SGEMM{core.Meta{
		ProgName:   "SGEMM",
		ProgSuite:  core.SuiteParboil,
		Desc:       "register-tiled dense matrix multiplication",
		Kernels:    1,
		InputNames: []string{"small"},
		Default:    "small",
	}}
}

const (
	gemmN      = 256   // simulated square size
	gemmTile   = 16    // k-tile depth
	gemmRows   = 4     // outputs per thread (register tile)
	gemmScale  = 700.0 // the paper's "small" input plus harness repeats
	gemmPasses = 300
)

// Run multiplies random matrices and validates sampled rows against a
// float64 reference.
func (p *SGEMM) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(gemmScale)

	rng := xrand.New(xrand.HashString("sgemm"))
	a := make([]float32, gemmN*gemmN)
	b := make([]float32, gemmN*gemmN)
	cOut := make([]float32, gemmN*gemmN)
	for i := range a {
		a[i] = rng.Float32() - 0.5
		b[i] = rng.Float32() - 0.5
	}

	dA := dev.NewArray(gemmN*gemmN, 4)
	dB := dev.NewArray(gemmN*gemmN, 4)
	dC := dev.NewArray(gemmN*gemmN, 4)

	tiles := gemmN / gemmTile
	threads := gemmN * gemmN / gemmRows
	l := dev.LaunchShared("mysgemmNT", threads/256, 256,
		2*gemmTile*gemmTile*4, func(c *sim.Ctx) {
			o := c.TID()
			col := o % gemmN
			rowBase := (o / gemmN) * gemmRows
			var sum [gemmRows]float32
			for t := 0; t < tiles; t++ {
				// The A strip broadcasts across the warp (all lanes share
				// rowBase); the B element is coalesced across lanes (col is
				// consecutive).
				c.Load(dA.At(rowBase*gemmN+t*gemmTile+(c.Thread%gemmTile)), 16)
				c.Load(dB.At((t*gemmTile+c.Thread/gemmTile)*gemmN+col), 4)
				c.SyncThreads()
				for k := 0; k < gemmTile; k++ {
					bv := b[col*gemmN+t*gemmTile+k] // B row-major transposed
					for i := 0; i < gemmRows; i++ {
						sum[i] += a[(rowBase+i)*gemmN+t*gemmTile+k] * bv
					}
				}
				c.SharedAccessRep(uint64(c.Thread%gemmTile*4), gemmRows)
				c.FP32Ops(2 * gemmTile * gemmRows)
				c.SyncThreads()
			}
			for i := 0; i < gemmRows; i++ {
				cOut[(rowBase+i)*gemmN+col] = sum[i]
				c.Store(dC.At((rowBase+i)*gemmN+col), 4)
			}
		})
	dev.Repeat(l, gemmPasses)

	// Validate three sampled rows fully in float64.
	for _, row := range []int{0, gemmN / 2, gemmN - 1} {
		for col := 0; col < gemmN; col++ {
			var want float64
			for k := 0; k < gemmN; k++ {
				want += float64(a[row*gemmN+k]) * float64(b[col*gemmN+k])
			}
			got := float64(cOut[row*gemmN+col])
			if math.Abs(got-want) > 1e-3*(math.Abs(want)+1) {
				return core.Validatef(p.Name(), "C[%d,%d] = %g, want %g", row, col, got, want)
			}
		}
	}
	return nil
}
