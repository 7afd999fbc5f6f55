package parboil

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// CUTCP computes the short-range (distance-cutoff) component of the
// Coulombic potential on a 3-D grid around a set of point charges — the
// explicit-water biomolecular model of the paper, here a synthetic box of
// charges. Atoms are binned spatially; each grid point scans the atoms of
// its neighborhood bins. Compute bound (fp32 plus rsqrt).
type CUTCP struct{ core.Meta }

// NewCUTCP constructs the cutoff Coulombic potential benchmark.
func NewCUTCP() *CUTCP {
	return &CUTCP{core.Meta{
		ProgName:   "CUTCP",
		ProgSuite:  core.SuiteParboil,
		Desc:       "distance-cutoff Coulombic potential on a 3-D grid",
		Kernels:    1,
		InputNames: []string{"watbox"},
		Default:    "watbox",
	}}
}

const (
	cutGrid   = 24 // grid points per dimension
	cutAtoms  = 2000
	cutBins   = 8     // bins per dimension
	cutoff    = 0.95  // in bin units (less than one bin: a 3x3x3 neighborhood suffices)
	cutScale  = 26000 // watbox ~100^3 grid, ~50x the atom density, plus harness repeats
	cutPasses = 18
)

// Run computes the potential and validates sampled grid points against a
// cutoff-consistent brute-force reference.
func (p *CUTCP) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(cutScale)

	rng := xrand.New(xrand.HashString("cutcp"))
	ax := make([]float32, cutAtoms)
	ay := make([]float32, cutAtoms)
	az := make([]float32, cutAtoms)
	aq := make([]float32, cutAtoms)
	for i := 0; i < cutAtoms; i++ {
		ax[i], ay[i], az[i] = rng.Float32(), rng.Float32(), rng.Float32()
		aq[i] = rng.Float32()*2 - 1
	}
	// Spatial binning on the host (Parboil bins on the host too).
	bins := make([][]int32, cutBins*cutBins*cutBins)
	binOf := func(x, y, z float32) int {
		bx := int(x * cutBins)
		by := int(y * cutBins)
		bz := int(z * cutBins)
		if bx >= cutBins {
			bx = cutBins - 1
		}
		if by >= cutBins {
			by = cutBins - 1
		}
		if bz >= cutBins {
			bz = cutBins - 1
		}
		return (bz*cutBins+by)*cutBins + bx
	}
	for i := 0; i < cutAtoms; i++ {
		b := binOf(ax[i], ay[i], az[i])
		bins[b] = append(bins[b], int32(i))
	}

	n := cutGrid * cutGrid * cutGrid
	pot := make([]float32, n)
	dAtoms := dev.NewArray(cutAtoms, 16)
	dPot := dev.NewArray(n, 4)

	cutoffWorld := float32(cutoff / cutBins)
	l := dev.Launch("cutoffPotential", (n+127)/128, 128, func(c *sim.Ctx) {
		i := c.TID()
		if i >= n {
			return
		}
		gz := i / (cutGrid * cutGrid)
		gy := (i / cutGrid) % cutGrid
		gx := i % cutGrid
		px := (float32(gx) + 0.5) / cutGrid
		py := (float32(gy) + 0.5) / cutGrid
		pz := (float32(gz) + 0.5) / cutGrid
		var sum float32
		visited := 0
		bx0 := int(px*cutBins) - 1
		by0 := int(py*cutBins) - 1
		bz0 := int(pz*cutBins) - 1
		for dz := 0; dz < 3; dz++ {
			for dy := 0; dy < 3; dy++ {
				for dx := 0; dx < 3; dx++ {
					bx, by, bz := bx0+dx, by0+dy, bz0+dz
					if bx < 0 || by < 0 || bz < 0 || bx >= cutBins || by >= cutBins || bz >= cutBins {
						continue
					}
					for _, ai := range bins[(bz*cutBins+by)*cutBins+bx] {
						dxp := ax[ai] - px
						dyp := ay[ai] - py
						dzp := az[ai] - pz
						r2 := dxp*dxp + dyp*dyp + dzp*dzp
						visited++
						if r2 < cutoffWorld*cutoffWorld {
							r := float32(math.Sqrt(float64(r2)))
							s := 1 - r2/(cutoffWorld*cutoffWorld)
							sum += aq[ai] / r * s * s
						}
					}
				}
			}
		}
		// Bin atom data is contiguous, so neighboring grid points read
		// neighboring atoms (coalesced); the dominating cost is arithmetic.
		c.Load(dAtoms.At(i%cutAtoms), 16)
		c.FP32Ops(6 * visited)
		c.SFUOps(visited / 4)
		c.IntOps(3 * visited)
		c.Store(dPot.At(i), 4)
		pot[i] = sum
	})
	dev.Repeat(l, cutPasses)

	// Validate sampled points against brute force over all atoms with the
	// same cutoff.
	for _, i := range []int{0, n / 2, n - 1, 7777} {
		gz := i / (cutGrid * cutGrid)
		gy := (i / cutGrid) % cutGrid
		gx := i % cutGrid
		px := (float64(gx) + 0.5) / cutGrid
		py := (float64(gy) + 0.5) / cutGrid
		pz := (float64(gz) + 0.5) / cutGrid
		var want float64
		co := float64(cutoffWorld)
		for a := 0; a < cutAtoms; a++ {
			dx := float64(ax[a]) - px
			dy := float64(ay[a]) - py
			dz := float64(az[a]) - pz
			r2 := dx*dx + dy*dy + dz*dz
			if r2 < co*co {
				r := math.Sqrt(r2)
				s := 1 - r2/(co*co)
				want += float64(aq[a]) / r * s * s
			}
		}
		if math.Abs(float64(pot[i])-want) > 1e-2*(math.Abs(want)+1) {
			return core.Validatef(p.Name(), "grid point %d potential %g, want %g", i, pot[i], want)
		}
	}
	return nil
}
