package parboil

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
)

// LBM is Parboil's Lattice-Boltzmann fluid dynamics code: a D3Q19
// stream-and-collide sweep over a lid-driven cavity. Every cell reads the 19
// distribution values of its neighborhood and writes 19 values — a heavily
// memory-bound streaming pattern. The paper finds LBM to suffer the largest
// runtime (7.75x) and energy (2x) increases of all programs when the memory
// clock drops to 324 MHz, and it is one of the few programs measurable
// there thanks to its long runtime.
type LBM struct{ core.Meta }

// NewLBM constructs the Lattice-Boltzmann benchmark.
func NewLBM() *LBM {
	return &LBM{core.Meta{
		ProgName:   "LBM",
		ProgSuite:  core.SuiteParboil,
		Desc:       "D3Q19 Lattice-Boltzmann lid-driven cavity",
		Kernels:    1,
		InputNames: []string{"100", "3000"},
		Default:    "3000",
	}}
}

const (
	lbmDim   = 24 // simulated lattice edge (the paper's is 120x120x150)
	lbmQ     = 19
	lbmOmega = 1.2
	lbmScale = 580.0 // calibrated: (120*120*150)/24^3 input ratio times the measured sweep fraction
	lbmReal  = 4     // real timesteps simulated; the rest replay
)

// d3q19 velocity set.
var lbmDirs = [lbmQ][3]int{
	{0, 0, 0},
	{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
	{1, 1, 0}, {-1, 1, 0}, {1, -1, 0}, {-1, -1, 0},
	{1, 0, 1}, {-1, 0, 1}, {1, 0, -1}, {-1, 0, -1},
	{0, 1, 1}, {0, -1, 1}, {0, 1, -1}, {0, -1, -1},
}

var lbmWeights = [lbmQ]float64{
	1.0 / 3,
	1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
}

// Run advances the cavity and validates mass conservation.
func (p *LBM) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	var timesteps int
	switch input {
	case "100":
		timesteps = 100
	case "3000":
		timesteps = 3000
	default:
		return fmt.Errorf("LBM: unknown input %q", input)
	}
	scale := lbmScale
	if timesteps <= 100 {
		// The short input is looped by the harness so the sensor gets a
		// usable window (the paper's methodology recommendation).
		scale *= 4
	}
	dev.SetTimeScale(scale)

	n := lbmDim * lbmDim * lbmDim
	src := make([]float64, n*lbmQ)
	dst := make([]float64, n*lbmQ)
	// Initialize at equilibrium (rho=1, u=0).
	for c := 0; c < n; c++ {
		for q := 0; q < lbmQ; q++ {
			src[c*lbmQ+q] = lbmWeights[q]
		}
	}
	massBefore := lbmMass(src)

	dSrc := dev.NewArray(n*lbmQ, 8)
	dDst := dev.NewArray(n*lbmQ, 8)

	idx := func(x, y, z int) int { return (z*lbmDim+y)*lbmDim + x }
	var last sim.LaunchID
	for step := 0; step < lbmReal; step++ {
		cur, nxt := src, dst
		if step%2 == 1 {
			cur, nxt = dst, src
		}
		last = dev.Launch("performStreamCollide", (n+127)/128, 128, func(c *sim.Ctx) {
			i := c.TID()
			if i >= n {
				return
			}
			z := i / (lbmDim * lbmDim)
			y := (i / lbmDim) % lbmDim
			x := i % lbmDim
			// Pull streaming: gather the 19 distributions.
			var f [lbmQ]float64
			var rho, ux, uy, uz float64
			for q := 0; q < lbmQ; q++ {
				sx := (x - lbmDirs[q][0] + lbmDim) % lbmDim
				sy := (y - lbmDirs[q][1] + lbmDim) % lbmDim
				sz := (z - lbmDirs[q][2] + lbmDim) % lbmDim
				f[q] = cur[idx(sx, sy, sz)*lbmQ+q]
				rho += f[q]
				ux += f[q] * float64(lbmDirs[q][0])
				uy += f[q] * float64(lbmDirs[q][1])
				uz += f[q] * float64(lbmDirs[q][2])
				// x-neighbors coalesce; y/z neighbors stride across rows.
				c.Load(dSrc.At(q*n+idx(sx, sy, sz)), 8)
			}
			ux /= rho
			uy /= rho
			uz /= rho
			// Lid drive on the top plane (body-force approximation).
			if z == lbmDim-1 {
				ux += 0.005
			}
			u2 := ux*ux + uy*uy + uz*uz
			for q := 0; q < lbmQ; q++ {
				cu := 3 * (float64(lbmDirs[q][0])*ux + float64(lbmDirs[q][1])*uy + float64(lbmDirs[q][2])*uz)
				feq := lbmWeights[q] * rho * (1 + cu + 0.5*cu*cu - 1.5*u2)
				nxt[i*lbmQ+q] = f[q] + lbmOmega*(feq-f[q])
				c.Store(dDst.At(q*n+i), 8)
			}
			c.FP64Ops(lbmQ*12 + 30)
			c.IntOps(lbmQ * 8)
		})
	}
	// The remaining timesteps replay the representative sweep.
	if timesteps > lbmReal {
		dev.Repeat(last, timesteps-lbmReal+1)
	}

	final := src
	if lbmReal%2 == 1 {
		final = dst
	}
	massAfter := lbmMass(final)
	// The lid drive injects a little momentum but collisions conserve mass
	// exactly up to float error.
	if math.Abs(massAfter-massBefore)/massBefore > 1e-9 {
		return core.Validatef(p.Name(), "mass drift: %g -> %g", massBefore, massAfter)
	}
	// Flow sanity: the lid must have induced motion.
	var maxU float64
	for c := 0; c < n; c++ {
		var ux float64
		for q := 0; q < lbmQ; q++ {
			ux += final[c*lbmQ+q] * float64(lbmDirs[q][0])
		}
		if math.Abs(ux) > maxU {
			maxU = math.Abs(ux)
		}
	}
	if maxU == 0 {
		return core.Validatef(p.Name(), "no flow developed")
	}
	return nil
}

func lbmMass(f []float64) float64 {
	var m float64
	for _, v := range f {
		m += v
	}
	return m
}
