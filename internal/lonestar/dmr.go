package lonestar

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/sim"
)

// DMR is LonestarGPU's Delaunay mesh refinement (Kulkarni et al.'s
// algorithm): bad triangles (minimum angle below the quality bound) are
// fixed by inserting their circumcenters and retriangulating the
// surrounding cavity. Cavities of concurrently processed triangles may
// overlap; conflicting threads back off and retry in a later round. Which
// cavities conflict depends on the order blocks execute — on this simulator
// a fixed scrambled permutation of (kernel, launch) — so the retry counts
// (and with them runtime and energy) are genuinely order dependent, as the
// paper observes for irregular codes.
type DMR struct{ core.Meta }

// NewDMR constructs the mesh-refinement benchmark.
func NewDMR() *DMR {
	return &DMR{core.Meta{
		ProgName:    "DMR",
		ProgSuite:   core.SuiteLonestar,
		Desc:        "Delaunay mesh refinement with cavity retriangulation",
		Kernels:     4,
		InputNames:  []string{"250k", "1m", "5m"},
		Default:     "1m",
		IsIrregular: true,
	}}
}

// dmrQuality is the minimum-angle bound. LonestarGPU refines to 30
// degrees on its curated meshes; on random meshes, Delaunay refinement
// with circumcenter insertion is only guaranteed to terminate below
// ~20.7 degrees (Ruppert's bound), so the surrogate uses a provably
// terminating bound — the cavity mechanics are identical.
const dmrQuality = 20.5

// dmrInput maps the paper's mesh sizes to surrogate point counts.
func dmrInput(input string) (points int, realNodes float64, err error) {
	switch input {
	case "250k":
		return 2000, 250e3, nil
	case "1m":
		return 4000, 1000e3, nil
	case "5m":
		return 8000, 5000e3, nil
	}
	return 0, 0, fmt.Errorf("DMR: unknown input %q", input)
}

// Run refines the mesh until no bad triangles remain and validates mesh
// consistency and final quality.
func (p *DMR) Run(ctx context.Context, dev *sim.GPU, input string) error {
	points, realNodes, err := dmrInput(input)
	if err != nil {
		return err
	}
	dev.SetTimeScale(realNodes / float64(points))

	m := mesh.Generate(points, 0xd312+uint64(points))
	initialBad := m.CountBad(dmrQuality)
	if initialBad == 0 {
		return core.Validatef(p.Name(), "generated mesh has no bad triangles")
	}

	dTris := dev.NewArray(16*points, 48)
	dPts := dev.NewArray(16*points, 16)
	dBad := dev.NewArray(16*points, 4)
	dWl := dev.NewArray(16*points, 4)

	maxRounds := 1000
	for round := 0; round < maxRounds; round++ {
		bad := m.BadTriangles(dmrQuality)
		if len(bad) == 0 {
			break
		}
		// Kernel 1: quality check over all triangles.
		total := len(m.Tris)
		dev.Launch("check_triangles", (total+255)/256, 256, func(c *sim.Ctx) {
			t := c.TID()
			if t >= total {
				return
			}
			c.Load(dTris.At(t), 48)
			if !m.Tris[t].Alive {
				c.IntOps(2)
				return
			}
			c.LoadRep(dPts.At(t%points), 16, 3)
			c.FP32Ops(40)
			c.SFUOps(3)
			if m.IsBad(t, dmrQuality) {
				c.AtomicOp(dWl.At(0))
				c.Store(dBad.At(t%(16*points)), 4)
			}
			c.IntOps(8)
		})

		// Kernel 2: cavity processing. Threads claim their cavities; the
		// claim order is the engine's block order, so which threads lose
		// conflicts depends on it.
		claimed := make(map[int32]bool)
		type job struct {
			tri    int32
			cavity []int32
			center mesh.Point
		}
		var winners []job
		conflicts := 0
		// Ordered: cavity claims go to a shared map; the claim order IS the
		// block-scheduling order (the source of the timing dependence).
		dev.LaunchOrdered("refine_cavities", (len(bad)+127)/128, 128, func(c *sim.Ctx) {
			i := c.TID()
			if i >= len(bad) {
				return
			}
			t := bad[i]
			c.Load(dWl.At(i%(16*points)), 4)
			if !m.Tris[t].Alive || !m.IsBad(int(t), dmrQuality) {
				c.IntOps(4)
				return
			}
			center := m.Circumcenter(int(t))
			if center.X < -2 || center.X > 3 || center.Y < -2 || center.Y > 3 {
				c.IntOps(6)
				return
			}
			loc, err := m.Locate(center)
			if err != nil {
				c.IntOps(6)
				return
			}
			cavity := m.CavityOf(loc, center)
			// Record the cavity expansion: scattered triangle loads plus
			// in-circle tests.
			c.LoadRep(dTris.At(int(t)%(16*points)), 48, len(cavity)+2)
			c.FP32Ops(30 * (len(cavity) + 1))
			c.IntOps(10 * len(cavity))
			// Claim the cavity and its border with atomics; first claimant
			// in execution order wins.
			ok := true
			for _, ct := range cavity {
				if claimed[ct] {
					ok = false
					break
				}
			}
			for _, ct := range cavity {
				c.AtomicOp(dTris.At(int(ct) % (16 * points)))
			}
			if !ok {
				conflicts++
				c.IntOps(4)
				return
			}
			for _, ct := range cavity {
				claimed[ct] = true
			}
			winners = append(winners, job{tri: t, cavity: cavity, center: center})
		})

		// Kernel 3: retriangulate the claimed cavities (the winners write
		// the new triangles).
		if len(winners) > 0 {
			// Ordered: winners retriangulate the one shared mesh in turn.
			dev.LaunchOrdered("retriangulate", (len(winners)+127)/128, 128, func(c *sim.Ctx) {
				i := c.TID()
				if i >= len(winners) {
					return
				}
				w := winners[i]
				if !m.Tris[w.tri].Alive {
					c.IntOps(2)
					return
				}
				// Re-expand the cavity at commit time: an earlier winner in
				// this round may have retriangulated adjacent territory, and
				// the fresh cavity keeps the mesh Delaunay (the optimistic
				// claim only filtered out bulk conflicts).
				loc, err := m.Locate(w.center)
				if err != nil {
					c.IntOps(2)
					return
				}
				cavity := m.CavityOf(loc, w.center)
				newTris, err := m.Retriangulate(cavity, w.center)
				if err != nil {
					c.IntOps(2)
					return
				}
				c.StoreRep(dTris.At(int(w.tri)%(16*points)), 48, len(newTris)+1)
				c.FP32Ops(25 * len(newTris))
				c.IntOps(12 * len(newTris))
				c.AtomicOp(dWl.At(1))
			})
		}

		// Kernel 4: worklist compaction.
		dev.Launch("compact_worklist", (len(bad)+511)/512, 512, func(c *sim.Ctx) {
			if c.TID() < len(bad) {
				c.Load(dWl.At(c.TID()%(16*points)), 4)
				c.IntOps(3)
			}
		})
		_ = conflicts
	}

	if err := m.CheckConsistency(); err != nil {
		return core.Validatef(p.Name(), "mesh inconsistent after refinement: %v", err)
	}
	finalBad := m.CountBad(dmrQuality)
	if finalBad > initialBad/50 {
		return core.Validatef(p.Name(), "refinement left %d bad triangles (started with %d)", finalBad, initialBad)
	}
	if m.NumAlive() <= points {
		return core.Validatef(p.Name(), "refinement did not grow the mesh")
	}
	return nil
}
