package parboil

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// TPACF computes the two-point angular correlation function of astronomical
// body positions: histograms of the angular distance between all pairs of
// points (data-data, data-random and random-random). Double-precision dot
// products with acos dominate — the only fp64-heavy Parboil code studied.
type TPACF struct{ core.Meta }

// NewTPACF constructs the angular-correlation benchmark.
func NewTPACF() *TPACF {
	return &TPACF{core.Meta{
		ProgName:   "TPACF",
		ProgSuite:  core.SuiteParboil,
		Desc:       "two-point angular correlation function of sky positions",
		Kernels:    1,
		InputNames: []string{"small"},
		Default:    "small",
	}}
}

const (
	tpacfN      = 4096 // simulated points per set (the paper's uses ~10k x 100 random sets)
	tpacfBins   = 20
	tpacfScale  = 760.0
	tpacfPasses = 40
)

// Run histograms pair angles and validates against a sequential recompute.
func (p *TPACF) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(tpacfScale)

	rng := xrand.New(xrand.HashString("tpacf"))
	// Unit vectors on the sphere.
	x := make([]float64, tpacfN)
	y := make([]float64, tpacfN)
	z := make([]float64, tpacfN)
	for i := 0; i < tpacfN; i++ {
		theta := math.Acos(2*rng.Float64() - 1)
		phi := 2 * math.Pi * rng.Float64()
		x[i] = math.Sin(theta) * math.Cos(phi)
		y[i] = math.Sin(theta) * math.Sin(phi)
		z[i] = math.Cos(theta)
	}
	hist := make([]uint64, tpacfBins)

	dPts := dev.NewArray(tpacfN, 24)
	dHist := dev.NewArray(tpacfBins, 8)

	binOf := func(dot float64) int {
		// Logarithmic angular bins, as in TPACF.
		ang := math.Acos(clampUnit(dot))
		if ang <= 0 {
			return 0
		}
		b := int((math.Log10(ang) + 3) * float64(tpacfBins) / 3.5)
		if b < 0 {
			b = 0
		}
		if b >= tpacfBins {
			b = tpacfBins - 1
		}
		return b
	}

	// Ordered: every block accumulates into the one shared histogram.
	l := dev.LaunchSharedOrdered("gen_hists", (tpacfN+127)/128, 128, tpacfBins*8, func(c *sim.Ctx) {
		i := c.TID()
		if i >= tpacfN {
			return
		}
		c.Load(dPts.At(i), 24)
		for j := i + 1; j < tpacfN; j++ {
			dot := x[i]*x[j] + y[i]*y[j] + z[i]*z[j]
			hist[binOf(dot)]++
		}
		pairs := tpacfN - i - 1
		if pairs > 0 {
			// Tiles of partner points stream through shared memory; the dot
			// product and binning are fp64 plus an acos (SFU) per pair.
			c.LoadRep(dPts.At(i+1), 24, (pairs+127)/128)
			c.SharedAccessRep(uint64(c.Thread*8), pairs)
			c.FP64Ops(6 * pairs)
			c.SFUOps(pairs)
			c.IntOps(2 * pairs)
			c.AtomicOp(dHist.At(i % tpacfBins))
		}
	})
	dev.Repeat(l, tpacfPasses)

	// Sequential reference.
	ref := make([]uint64, tpacfBins)
	for i := 0; i < tpacfN; i++ {
		for j := i + 1; j < tpacfN; j++ {
			dot := x[i]*x[j] + y[i]*y[j] + z[i]*z[j]
			ref[binOf(dot)]++
		}
	}
	for b := range ref {
		if hist[b] != ref[b] {
			return core.Validatef(p.Name(), "bin %d = %d, want %d", b, hist[b], ref[b])
		}
	}
	return nil
}

func clampUnit(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}
