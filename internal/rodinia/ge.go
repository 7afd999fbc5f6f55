package rodinia

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// GE is Rodinia's Gaussian elimination: for every pivot column the GPU
// launches one kernel to compute the multiplier column and one to update
// the trailing submatrix. The long sequence of shrinking launches leaves
// the GPU underutilized toward the end — the paper's example of a code
// whose behaviour is dominated by launch patterns rather than raw
// throughput.
type GE struct{ core.Meta }

// NewGE constructs the Gaussian-elimination benchmark.
func NewGE() *GE {
	return &GE{core.Meta{
		ProgName:   "GE",
		ProgSuite:  core.SuiteRodinia,
		Desc:       "Gaussian elimination with per-column kernel pairs",
		Kernels:    2,
		InputNames: []string{"2048"},
		Default:    "2048",
	}}
}

const (
	geN     = 320    // simulated matrix size (the paper's is 2048)
	geScale = 2100.0 // (2048/320)^3 work ratio folded with the shorter launch sequence
)

// Run solves A x = b and validates the residual.
func (p *GE) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(geScale)

	rng := xrand.New(xrand.HashString("gaussian"))
	a := make([]float64, geN*geN)
	b := make([]float64, geN)
	aOrig := make([]float64, geN*geN)
	bOrig := make([]float64, geN)
	for i := 0; i < geN; i++ {
		for j := 0; j < geN; j++ {
			a[i*geN+j] = rng.Float64() - 0.5
		}
		a[i*geN+i] += geN // diagonally dominant: no pivoting needed
		b[i] = rng.Float64()
	}
	copy(aOrig, a)
	copy(bOrig, b)

	dA := dev.NewArray(geN*geN, 4)
	dB := dev.NewArray(geN, 4)
	dM := dev.NewArray(geN*geN, 4)

	m := make([]float64, geN*geN)
	for k := 0; k < geN-1; k++ {
		k := k
		rows := geN - k - 1
		// Kernel 1: multipliers for column k.
		dev.Launch("Fan1", (rows+255)/256, 256, func(c *sim.Ctx) {
			i := c.TID()
			if i >= rows {
				return
			}
			r := k + 1 + i
			m[r*geN+k] = a[r*geN+k] / a[k*geN+k]
			c.Load(dA.At(r*geN+k), 4) // column access: stride geN
			c.Load(dA.At(k*geN+k), 4) // broadcast
			c.FP32Ops(1)
			c.Store(dM.At(r*geN+k), 4)
		})
		// Kernel 2: update the trailing submatrix.
		dev.Launch("Fan2", (rows*(geN-k)+255)/256, 256, func(c *sim.Ctx) {
			t := c.TID()
			if t >= rows*(geN-k) {
				return
			}
			i := t / (geN - k) // row offset
			j := t % (geN - k) // col offset
			r := k + 1 + i
			cc := k + j
			a[r*geN+cc] -= m[r*geN+k] * a[k*geN+cc]
			c.Load(dM.At(r*geN+k), 4)
			c.Load(dA.At(k*geN+cc), 4)
			c.Load(dA.At(r*geN+cc), 4)
			c.FP32Ops(2)
			c.IntOps(8)
			c.Store(dA.At(r*geN+cc), 4)
			if j == 0 {
				b[r] -= m[r*geN+k] * b[k]
				c.Load(dB.At(k), 4)
				c.Store(dB.At(r), 4)
			}
		})
	}

	// Host back substitution.
	x := make([]float64, geN)
	for i := geN - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < geN; j++ {
			sum -= a[i*geN+j] * x[j]
		}
		x[i] = sum / a[i*geN+i]
	}
	// Validate the residual ||A0 x - b0||.
	var maxRes float64
	for i := 0; i < geN; i++ {
		var dot float64
		for j := 0; j < geN; j++ {
			dot += aOrig[i*geN+j] * x[j]
		}
		if r := math.Abs(dot - bOrig[i]); r > maxRes {
			maxRes = r
		}
	}
	if maxRes > 1e-8 {
		return core.Validatef(p.Name(), "residual %g too large", maxRes)
	}
	return nil
}
