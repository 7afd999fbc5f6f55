package parboil

import (
	"context"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// PBFS is Parboil's breadth-first search: a data-driven, queue-based
// traversal. Each level launches one kernel over the current frontier; every
// frontier thread relaxes its node's neighbors and appends newly discovered
// nodes to the next queue with atomics. The input stands in for the San
// Francisco Bay Area road map (321 k nodes, 800 k edges).
type PBFS struct{ core.Meta }

// NewPBFS constructs the Parboil BFS.
func NewPBFS() *PBFS {
	return &PBFS{core.Meta{
		ProgName:    "P-BFS",
		ProgSuite:   core.SuiteParboil,
		Desc:        "queue-based breadth-first search (SF Bay road map)",
		Kernels:     3,
		InputNames:  []string{"bay"},
		Default:     "bay",
		IsIrregular: true,
	}}
}

const (
	pbfsRows, pbfsCols = 120, 136 // ~16.3k nodes, road-like
	pbfsRealNodes      = 321000.0
	pbfsPasses         = 450 // traversal repetitions of the benchmark loop
)

// Items reports the REAL input's processed vertices and edges for Table 4's
// per-item metrics (the surrogate time scale makes measured times
// correspond to the real input).
func (p *PBFS) Items(input string) (int64, int64) {
	g := graph.RoadLattice(pbfsRows, pbfsCols, 0xba4)
	ratio := pbfsRealNodes / float64(g.N)
	return int64(pbfsRealNodes), int64(float64(g.M()) * ratio)
}

// Run performs the full traversal and validates the levels against the
// sequential reference BFS.
func (p *PBFS) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	g := graph.RoadLattice(pbfsRows, pbfsCols, 0xba4)
	dev.SetTimeScale(pbfsRealNodes / float64(g.N) * pbfsPasses)

	dLev := dev.NewArray(g.N, 4)
	dRow := dev.NewArray(g.N+1, 4)
	dCol := dev.NewArray(g.M(), 4)
	dQueue := dev.NewArray(g.N, 4)
	dCount := dev.NewArray(1, 4)

	lev := make([]int32, g.N)
	for i := range lev {
		lev[i] = -1
	}
	src := 0
	lev[src] = 0

	// Kernel 1: initialize levels.
	dev.Launch("init", (g.N+255)/256, 256, func(c *sim.Ctx) {
		if c.TID() < g.N {
			c.Store(dLev.At(c.TID()), 4)
		}
	})

	frontier := []int32{int32(src)}
	level := int32(0)
	for len(frontier) > 0 {
		cur := frontier
		var next []int32
		grid := (len(cur) + 127) / 128
		// Kernel 2: expand the frontier (the hot kernel). Ordered: threads
		// of different blocks race on the level array and append to the
		// shared next-frontier queue.
		dev.LaunchOrdered("bfsKernel", grid, 128, func(c *sim.Ctx) {
			i := c.TID()
			if i >= len(cur) {
				return
			}
			v := cur[i]
			c.Load(dQueue.At(i), 4)
			c.Load(dRow.At(int(v)), 8) // row and row+1
			row := g.Neighbors(int(v))
			for k, w := range row {
				c.Load(dCol.At(int(g.RowPtr[v])+k), 4)
				c.Load(dLev.At(int(w)), 4) // scattered
				if lev[w] < 0 {
					lev[w] = level + 1
					next = append(next, w)
					c.Store(dLev.At(int(w)), 4)
					c.AtomicOp(dCount.At(0))
					c.Store(dQueue.At(len(next)-1), 4)
				}
			}
			c.IntOps(6 + 2*len(row))
		})
		// Kernel 3: host reads the queue size back (modeled as a tiny copy
		// kernel; Parboil's multi-block version synchronizes with a global
		// barrier kernel).
		dev.Launch("resetCount", 1, 32, func(c *sim.Ctx) {
			if c.Thread == 0 {
				c.Load(dCount.At(0), 4)
				c.Store(dCount.At(0), 4)
			}
			c.IntOps(2)
		})
		frontier = next
		level++
	}

	ref := graph.BFSLevels(g, src)
	for v := range ref {
		if lev[v] != ref[v] {
			return core.Validatef(p.Name(), "level[%d] = %d, want %d", v, lev[v], ref[v])
		}
	}
	return nil
}
