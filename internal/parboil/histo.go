package parboil

import (
	"context"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Histo is Parboil's 2-D saturating histogram: pixel values are binned into
// a large histogram whose counts saturate at 255. The access pattern into
// the bins is input-dependent and contended, so the code is dominated by
// atomic traffic and scattered writes.
type Histo struct{ core.Meta }

// NewHisto constructs the saturating histogram benchmark.
func NewHisto() *Histo {
	return &Histo{core.Meta{
		ProgName:   "HISTO",
		ProgSuite:  core.SuiteParboil,
		Desc:       "2-D saturating histogram (bin counts cap at 255)",
		Kernels:    4,
		InputNames: []string{"20-4"},
		Default:    "20-4",
	}}
}

const (
	histoPixels = 1 << 18 // simulated image pixels
	histoBins   = 4096
	histoSat    = 255
	histoScale  = 430 // the paper's image and iteration count are larger
	histoPasses = 120 // the Parboil harness repeats the histogramming
)

// Run histograms a synthetic image (gaussian-ish hot spot over a uniform
// background, like the Parboil input) and validates against a sequential
// saturating histogram.
func (p *Histo) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(histoScale)

	rng := xrand.New(xrand.HashString("histo"))
	img := make([]int32, histoPixels)
	for i := range img {
		if rng.Float64() < 0.6 {
			// Hot region: concentrated bins -> heavy atomic contention.
			img[i] = int32(rng.Intn(histoBins / 64))
		} else {
			img[i] = int32(rng.Intn(histoBins))
		}
	}
	hist := make([]uint32, histoBins)

	dImg := dev.NewArray(histoPixels, 4)
	dHist := dev.NewArray(histoBins, 1)
	dInter := dev.NewArray(histoBins, 4)

	// Kernel 1: prescan finds the input value range.
	dev.Launch("histo_prescan", (histoPixels+511)/512, 512, func(c *sim.Ctx) {
		c.LoadRep(dImg.At(c.TID()), 4, 4)
		c.IntOps(12)
		c.SharedAccessRep(uint64(c.Thread*4), 4)
		c.SyncThreads()
	})

	// Kernel 2: zero the intermediate histograms.
	dev.Launch("histo_intermediates", (histoBins+255)/256, 256, func(c *sim.Ctx) {
		if c.TID() < histoBins {
			c.Store(dInter.At(c.TID()), 4)
			c.IntOps(2)
		}
	})

	// Kernel 3: the main histogramming kernel. Ordered: threads of every
	// block increment the same shared saturating bins.
	lm := dev.LaunchOrdered("histo_main", (histoPixels+255)/256, 256, func(c *sim.Ctx) {
		i := c.TID()
		if i >= histoPixels {
			return
		}
		c.Load(dImg.At(i), 4)
		bin := img[i]
		if hist[bin] < histoSat {
			hist[bin]++
		}
		c.IntOps(8)
		c.AtomicOp(dInter.At(int(bin)))
	})
	dev.Repeat(lm, histoPasses)

	// Kernel 4: saturate and write the final byte histogram.
	dev.Launch("histo_final", (histoBins+255)/256, 256, func(c *sim.Ctx) {
		if c.TID() < histoBins {
			c.Load(dInter.At(c.TID()), 4)
			c.IntOps(4)
			c.Store(dHist.At(c.TID()), 1)
		}
	})

	// Sequential reference.
	ref := make([]uint32, histoBins)
	for _, v := range img {
		if ref[v] < histoSat {
			ref[v]++
		}
	}
	for b := range ref {
		if hist[b] != ref[b] {
			return core.Validatef(p.Name(), "bin %d = %d, want %d", b, hist[b], ref[b])
		}
	}
	return nil
}
