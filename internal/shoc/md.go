package shoc

import (
	"context"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// MD is SHOC's molecular dynamics benchmark: the Lennard-Jones force
// computation over a fixed-size neighbor list for atoms scattered in a 3-D
// box. The neighbor-list gathers are semi-random (scattered loads), the
// force arithmetic is fp32 with reciprocal powers — a half-compute,
// half-memory profile.
type MD struct{ core.Meta }

// NewMD constructs the molecular-dynamics benchmark.
func NewMD() *MD {
	return &MD{core.Meta{
		ProgName:   "MD",
		ProgSuite:  core.SuiteSHOC,
		Desc:       "Lennard-Jones force computation over neighbor lists",
		Kernels:    1,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

const (
	mdAtoms     = 8192
	mdNeighbors = 96
	mdLJ1       = 1.5
	mdLJ2       = 2.0
	mdCut2      = 16.0
	mdScale     = 24.0
	mdPasses    = 220
)

// mdCand is one neighbor candidate: its squared distance and atom index.
type mdCand struct {
	d float64
	j int32
}

// mdSystem places the atoms and builds their neighbor lists: the
// mdNeighbors nearest atoms, approximated by a distance sort over a random
// sample, as SHOC's generator does.
func mdSystem() (pos [][3]float64, neigh [][]int32) {
	rng := xrand.New(xrand.HashString("md"))
	box := math.Cbrt(float64(mdAtoms)) * 1.2
	pos = make([][3]float64, mdAtoms)
	for i := range pos {
		pos[i] = [3]float64{rng.Float64() * box, rng.Float64() * box, rng.Float64() * box}
	}
	neigh = make([][]int32, mdAtoms)
	cands := make([]mdCand, 0, 256)
	for i := range neigh {
		cands = cands[:0]
		for k := 0; k < 256; k++ {
			j := int32(rng.Intn(mdAtoms))
			if int(j) == i {
				continue
			}
			dx := pos[j][0] - pos[i][0]
			dy := pos[j][1] - pos[i][1]
			dz := pos[j][2] - pos[i][2]
			cands = append(cands, mdCand{dx*dx + dy*dy + dz*dz, j})
		}
		slices.SortFunc(cands, func(a, b mdCand) int {
			switch {
			case a.d < b.d:
				return -1
			case a.d > b.d:
				return 1
			}
			return 0
		})
		list := make([]int32, mdNeighbors)
		for k := range list {
			list[k] = cands[k%len(cands)].j
		}
		neigh[i] = list
	}
	return pos, neigh
}

// Run computes the forces and validates sampled atoms against a float64
// recompute over the same neighbor lists.
func (p *MD) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(mdScale)

	pos, neigh := mdSystem()

	dPos := dev.NewArray(mdAtoms, 16)
	dNeigh := dev.NewArray(mdAtoms*mdNeighbors, 4)
	dForce := dev.NewArray(mdAtoms, 16)

	force := make([][3]float64, mdAtoms)
	l := dev.Launch("compute_lj_force", (mdAtoms+127)/128, 128, func(c *sim.Ctx) {
		i := c.TID()
		if i >= mdAtoms {
			return
		}
		c.Load(dPos.At(i), 16)
		var fx, fy, fz float64
		for k := 0; k < mdNeighbors; k++ {
			j := neigh[i][k]
			dx := pos[i][0] - pos[j][0]
			dy := pos[i][1] - pos[j][1]
			dz := pos[i][2] - pos[j][2]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 < mdCut2 && r2 > 0 {
				inv := 1 / r2
				r6 := inv * inv * inv
				f := r6 * (mdLJ1*r6 - mdLJ2) * inv
				fx += dx * f
				fy += dy * f
				fz += dz * f
			}
			// Neighbor index is coalesced; the position gather is scattered.
			c.Load(dNeigh.At(i*mdNeighbors+k), 4)
			c.Load(dPos.At(int(j)), 16)
		}
		force[i] = [3]float64{fx, fy, fz}
		c.FP32Ops(mdNeighbors * 14)
		c.SFUOps(mdNeighbors / 8)
		c.IntOps(mdNeighbors * 2)
		c.Store(dForce.At(i), 16)
	})
	dev.Repeat(l, mdPasses)

	// Validate sampled atoms against an independent recompute.
	for _, i := range []int{0, mdAtoms / 2, mdAtoms - 1} {
		var fx, fy, fz float64
		for k := 0; k < mdNeighbors; k++ {
			j := neigh[i][k]
			dx := pos[i][0] - pos[j][0]
			dy := pos[i][1] - pos[j][1]
			dz := pos[i][2] - pos[j][2]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 < mdCut2 && r2 > 0 {
				inv := 1 / r2
				r6 := inv * inv * inv
				f := r6 * (mdLJ1*r6 - mdLJ2) * inv
				fx += dx * f
				fy += dy * f
				fz += dz * f
			}
		}
		got := math.Sqrt(force[i][0]*force[i][0] + force[i][1]*force[i][1] + force[i][2]*force[i][2])
		want := math.Sqrt(fx*fx + fy*fy + fz*fz)
		if math.Abs(got-want) > 1e-9*(want+1) {
			return core.Validatef(p.Name(), "atom %d force %g, want %g", i, got, want)
		}
	}
	return nil
}
