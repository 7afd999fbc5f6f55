package shoc

import (
	"context"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// SBFS is SHOC's breadth-first search on an undirected random k-way graph.
// The implementation (after the IIIT-BFS algorithm SHOC ships) launches one
// kernel over EVERY node per level, re-reading the frontier array and the
// full adjacency structure each time, and runs the traversal many times per
// measurement pass. That is why the paper's Table 4 finds it to consume two
// to three orders of magnitude more time and energy per processed vertex
// and edge than LonestarGPU's BFS.
type SBFS struct{ core.Meta }

// NewSBFS constructs the SHOC BFS.
func NewSBFS() *SBFS {
	return &SBFS{core.Meta{
		ProgName:    "S-BFS",
		ProgSuite:   core.SuiteSHOC,
		Desc:        "frontier-array BFS on a uniform random k-way graph",
		Kernels:     9,
		InputNames:  []string{"default"},
		Default:     "default",
		IsIrregular: true,
	}}
}

const (
	// SHOC's default BFS problem is genuinely SMALL (problem size 1), and
	// the harness re-runs the traversal a great many times per measurement.
	// That combination is exactly why the paper's Table 4 finds S-BFS to
	// cost orders of magnitude more time and energy per processed item than
	// the other BFS implementations.
	sbfsNodes  = 16000
	sbfsDeg    = 1
	sbfsPasses = 50000
)

// Items reports processed vertices and edges (Table 4). S-BFS's input is
// its real (small) size — no surrogate scaling.
func (p *SBFS) Items(input string) (int64, int64) {
	g := graph.UniformRandom(sbfsNodes, sbfsDeg, 0x5b5)
	return int64(g.N), int64(g.M())
}

// Run traverses the graph and validates against the reference BFS.
func (p *SBFS) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	g := graph.UniformRandom(sbfsNodes, sbfsDeg, 0x5b5)
	dev.SetTimeScale(sbfsPasses)

	n := g.N
	dFrontier := dev.NewArray(n, 4)
	dVisited := dev.NewArray(n, 4)
	dCost := dev.NewArray(n, 4)
	dRow := dev.NewArray(n+1, 4)
	dCol := dev.NewArray(g.M(), 4)
	dFlag := dev.NewArray(1, 4)

	cost := make([]int32, n)
	frontier := make([]bool, n)
	visited := make([]bool, n)
	for i := range cost {
		cost[i] = -1
	}
	src := 0
	cost[src] = 0
	frontier[src] = true
	visited[src] = true

	// Kernel: reset cost array (SHOC re-initializes between passes; one of
	// the suite's many small utility kernels).
	dev.Launch("reset_kernel", (n+255)/256, 256, func(c *sim.Ctx) {
		if c.TID() < n {
			c.Store(dCost.At(c.TID()), 4)
			c.IntOps(2)
		}
	})

	level := int32(0)
	for {
		changed := false
		// The frontier-expansion kernel scans every node every level; the
		// IIIT algorithm also re-reads the frontier flags of all neighbors
		// and uses word-sized flags (4B per flag), wasting bandwidth.
		// Ordered: blocks race on the scattered visited/cost/frontier flags
		// and the shared changed bit.
		dev.LaunchOrdered("BFS_kernel_warp", (n+255)/256, 256, func(c *sim.Ctx) {
			v := c.TID()
			if v >= n {
				return
			}
			c.Load(dFrontier.At(v), 4)
			c.Load(dVisited.At(v), 4)
			c.Load(dCost.At(v), 4)
			// Only nodes discovered in the previous level expand now; nodes
			// discovered earlier in this same launch carry cost level+1.
			if !frontier[v] || cost[v] != level {
				// Inefficiency faithful to the original: even inactive
				// threads walk their adjacency metadata.
				c.Load(dRow.At(v), 8)
				c.IntOps(6)
				return
			}
			frontier[v] = false
			c.Load(dRow.At(v), 8)
			row := g.Neighbors(v)
			for k, w := range row {
				c.Load(dCol.At(int(g.RowPtr[v])+k), 4)
				c.Load(dVisited.At(int(w)), 4)
				c.Load(dCost.At(int(w)), 4)
				if !visited[w] {
					visited[w] = true
					cost[w] = level + 1
					frontier[w] = true
					changed = true
					c.Store(dCost.At(int(w)), 4)
					c.Store(dFrontier.At(int(w)), 4)
					c.AtomicOp(dFlag.At(0))
				}
			}
			c.IntOps(8 + 3*len(row))
			c.Store(dFrontier.At(v), 4)
		})
		// Host-side flag readback between levels (a separate tiny kernel in
		// SHOC's multi-kernel structure).
		dev.Launch("frontier_copy", 1, 32, func(c *sim.Ctx) {
			if c.Thread == 0 {
				c.Load(dFlag.At(0), 4)
				c.Store(dFlag.At(0), 4)
				c.IntOps(2)
			}
		})
		if !changed {
			break
		}
		level++
	}

	ref := graph.BFSLevels(g, src)
	for v := range ref {
		if cost[v] != ref[v] {
			return core.Validatef(p.Name(), "cost[%d] = %d, want %d", v, cost[v], ref[v])
		}
	}
	return nil
}
