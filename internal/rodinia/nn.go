package rodinia

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// NN is Rodinia's nearest neighbor: one kernel computes the Euclidean
// distance from every record (hurricane track points in the original data
// set) to a query location; the host selects the k smallest. A pure
// streaming kernel with one fp32 distance per record.
type NN struct{ core.Meta }

// NewNN constructs the nearest-neighbor benchmark.
func NewNN() *NN {
	return &NN{core.Meta{
		ProgName:   "NN",
		ProgSuite:  core.SuiteRodinia,
		Desc:       "k-nearest neighbors over unstructured records",
		Kernels:    1,
		InputNames: []string{"42k"},
		Default:    "42k",
	}}
}

const (
	nnRecords = 42 * 1024 // the paper's 42k data points, full size
	nnK       = 5
	nnScale   = 220.0 // ratio of the full record file to one pass
)

// Run finds the k nearest records and validates against a sequential scan.
func (p *NN) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(nnScale)

	rng := xrand.New(xrand.HashString("nn"))
	lat := make([]float32, nnRecords)
	lng := make([]float32, nnRecords)
	for i := 0; i < nnRecords; i++ {
		lat[i] = rng.Float32()*180 - 90
		lng[i] = rng.Float32()*360 - 180
	}
	qLat, qLng := float32(29.97), float32(-90.25)

	dRecs := dev.NewArray(nnRecords, 8)
	dDist := dev.NewArray(nnRecords, 4)

	// The benchmark harness scans the record list once per query location;
	// one representative query is simulated and the rest replay.
	dist := make([]float32, nnRecords)
	l := dev.Launch("euclid", (nnRecords+255)/256, 256, func(c *sim.Ctx) {
		i := c.TID()
		if i >= nnRecords {
			return
		}
		dx := lat[i] - qLat
		dy := lng[i] - qLng
		dist[i] = float32(math.Sqrt(float64(dx*dx + dy*dy)))
		c.Load(dRecs.At(i), 8)
		c.FP32Ops(5)
		c.SFUOps(1)
		c.Store(dDist.At(i), 4)
	})
	dev.Repeat(l, 12000)

	// Host-side top-k selection (as in Rodinia).
	type cand struct {
		d float32
		i int
	}
	topk := make([]cand, 0, nnK)
	for i, d := range dist {
		if len(topk) < nnK {
			topk = append(topk, cand{d, i})
			continue
		}
		worst := 0
		for j := 1; j < nnK; j++ {
			if topk[j].d > topk[worst].d {
				worst = j
			}
		}
		if d < topk[worst].d {
			topk[worst] = cand{d, i}
		}
	}

	// Reference: full sequential scan in float64.
	refBest := math.Inf(1)
	refIdx := -1
	for i := 0; i < nnRecords; i++ {
		dx := float64(lat[i]) - float64(qLat)
		dy := float64(lng[i]) - float64(qLng)
		d := math.Sqrt(dx*dx + dy*dy)
		if d < refBest {
			refBest = d
			refIdx = i
		}
	}
	found := false
	for _, c := range topk {
		if c.i == refIdx {
			found = true
			break
		}
	}
	if !found {
		return core.Validatef(p.Name(), "true nearest record %d missing from top-%d", refIdx, nnK)
	}
	return nil
}
