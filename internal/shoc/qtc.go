package shoc

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// QTC is SHOC's quality-threshold clustering: repeatedly find the largest
// cluster of points whose pairwise diameter stays under a threshold, remove
// it, and continue. Every round recomputes candidate clusters from the full
// distance matrix — O(n^2) fp32 work with data-dependent rounds, making the
// code mildly irregular.
type QTC struct{ core.Meta }

// NewQTC constructs the quality-threshold clustering benchmark.
func NewQTC() *QTC {
	return &QTC{core.Meta{
		ProgName:    "QTC",
		ProgSuite:   core.SuiteSHOC,
		Desc:        "quality-threshold clustering of 2-D points",
		Kernels:     6,
		InputNames:  []string{"default"},
		Default:     "default",
		IsIrregular: true,
	}}
}

const (
	qtcPoints    = 1024
	qtcThreshold = 2.5
	qtcRounds    = 8       // clustering rounds simulated
	qtcScale     = 80000.0 // (64k/1024)^2 quadratic work ratio plus passes
	qtcPasses    = 12
)

// Run clusters the points and validates that every produced cluster
// respects the diameter threshold and that the greedy choice was maximal.
func (p *QTC) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(qtcScale)

	rng := xrand.New(xrand.HashString("qtc"))
	xs := make([]float64, qtcPoints)
	ys := make([]float64, qtcPoints)
	for i := 0; i < qtcPoints; i++ {
		// Clumped points: a few gaussian blobs plus background noise.
		if i%4 != 0 {
			cx := float64(i%7) * 14
			cy := float64(i%5) * 11
			xs[i] = cx + rng.Norm()
			ys[i] = cy + rng.Norm()
		} else {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
	}
	dist := func(a, b int) float64 {
		dx := xs[a] - xs[b]
		dy := ys[a] - ys[b]
		return math.Sqrt(dx*dx + dy*dy)
	}

	dPts := dev.NewArray(qtcPoints, 8)
	dDegs := dev.NewArray(qtcPoints, 4)
	dCand := dev.NewArray(qtcPoints, 4)
	dUngrouped := dev.NewArray(qtcPoints, 4)
	dResult := dev.NewArray(qtcPoints, 4)
	dWinner := dev.NewArray(1, 4)

	alive := make([]bool, qtcPoints)
	for i := range alive {
		alive[i] = true
	}
	var clusters [][]int

	for round := 0; round < qtcRounds; round++ {
		// Kernel 1: compute "degrees" and candidate neighbor lists (points
		// within the threshold; only they can ever share a cluster with i).
		degs := make([]int, qtcPoints)
		neigh := make([][]int, qtcPoints)
		dev.Launch("compute_degrees", (qtcPoints+127)/128, 128, func(c *sim.Ctx) {
			i := c.TID()
			if i >= qtcPoints || !alive[i] {
				c.IntOps(2)
				return
			}
			c.Load(dPts.At(i), 8)
			for j := 0; j < qtcPoints; j++ {
				if alive[j] && j != i && dist(i, j) <= qtcThreshold {
					neigh[i] = append(neigh[i], j)
				}
			}
			degs[i] = len(neigh[i])
			c.LoadRep(dPts.At(0), 8, qtcPoints/32)
			c.FP32Ops(3 * qtcPoints)
			c.SFUOps(qtcPoints / 4)
			c.Store(dDegs.At(i), 4)
		})
		// Kernel 2: greedy QT candidate per seed point: grow a cluster by
		// nearest-first insertion while the diameter stays bounded.
		best := -1
		bestSize := 0
		bestMembers := []int{}
		// Ordered: all blocks compete to update the shared best cluster.
		dev.LaunchOrdered("QTC_device", (qtcPoints+127)/128, 128, func(c *sim.Ctx) {
			i := c.TID()
			if i >= qtcPoints || !alive[i] {
				c.IntOps(2)
				return
			}
			members := greedyCluster(i, neigh[i], dist)
			if len(members) > bestSize {
				bestSize = len(members)
				best = i
				bestMembers = members
			}
			c.Load(dCand.At(i), 4)
			c.FP32Ops(5 * degs[i] * degs[i])
			c.IntOps(6 * degs[i])
			c.Store(dCand.At(i), 4)
		})
		// Kernels 3-6: reduction of the winner, compaction of the
		// ungrouped list, result update, and a trim pass.
		dev.Launch("reduce_card", (qtcPoints+255)/256, 256, func(c *sim.Ctx) {
			if c.TID() < qtcPoints {
				c.Load(dCand.At(c.TID()), 4)
				c.SharedAccessRep(uint64(c.Thread*4), 6)
				c.IntOps(8)
				if c.Thread == 0 {
					c.Store(dWinner.At(0), 4)
				}
			}
		})
		dev.Launch("compact_ungrouped", (qtcPoints+255)/256, 256, func(c *sim.Ctx) {
			if c.TID() < qtcPoints {
				c.Load(dUngrouped.At(c.TID()), 4)
				c.IntOps(4)
				c.AtomicOp(dWinner.At(0))
				c.Store(dUngrouped.At(c.TID()), 4)
			}
		})
		dev.Launch("update_clustered_points", (qtcPoints+255)/256, 256, func(c *sim.Ctx) {
			if c.TID() < qtcPoints {
				c.Load(dResult.At(c.TID()), 4)
				c.IntOps(3)
				c.Store(dResult.At(c.TID()), 4)
			}
		})
		dev.Launch("trim_ungrouped", (qtcPoints+255)/256, 256, func(c *sim.Ctx) {
			if c.TID() < qtcPoints {
				c.Load(dUngrouped.At(c.TID()), 4)
				c.IntOps(3)
			}
		})
		if best < 0 || bestSize == 0 {
			break
		}
		for _, m := range bestMembers {
			alive[m] = false
		}
		clusters = append(clusters, bestMembers)
	}

	// Validate: every cluster's diameter respects the threshold.
	for ci, cl := range clusters {
		for a := 0; a < len(cl); a++ {
			for b := a + 1; b < len(cl); b++ {
				if dist(cl[a], cl[b]) > qtcThreshold+1e-9 {
					return core.Validatef(p.Name(), "cluster %d diameter violated", ci)
				}
			}
		}
	}
	if len(clusters) == 0 || len(clusters[0]) < 2 {
		return core.Validatef(p.Name(), "no meaningful clusters found")
	}
	// Validate greedy monotonicity: cluster sizes are non-increasing.
	for i := 1; i < len(clusters); i++ {
		if len(clusters[i]) > len(clusters[i-1]) {
			return core.Validatef(p.Name(), "cluster sizes not monotone: %d then %d",
				len(clusters[i-1]), len(clusters[i]))
		}
	}
	return nil
}

// greedyCluster grows a QT cluster from seed: repeatedly add the candidate
// that keeps the cluster diameter within the threshold, tightest first.
// Candidates are the seed's threshold neighbors; no other point can join.
func greedyCluster(seed int, candidates []int, dist func(a, b int) float64) []int {
	members := []int{seed}
	used := make(map[int]bool, len(candidates))
	for {
		bestJ := -1
		bestD := math.Inf(1)
		for _, j := range candidates {
			if used[j] {
				continue
			}
			// Diameter if j joins: max distance to current members.
			maxD := 0.0
			for _, m := range members {
				if d := dist(j, m); d > maxD {
					maxD = d
				}
			}
			if maxD <= qtcThreshold && maxD < bestD {
				bestD = maxD
				bestJ = j
			}
		}
		if bestJ < 0 {
			return members
		}
		used[bestJ] = true
		members = append(members, bestJ)
	}
}
