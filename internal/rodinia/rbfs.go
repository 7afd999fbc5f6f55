package rodinia

import (
	"context"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// RBFS is Rodinia's breadth-first search: a mask-driven traversal that
// launches one full-graph kernel pair per level. Every thread checks its
// node's frontier flag, so most threads do nothing on most levels — a
// memory-bound scan with scattered neighbor updates. The paper's inputs are
// uniform random graphs of 100k and 1M nodes.
type RBFS struct{ core.Meta }

// NewRBFS constructs the Rodinia BFS.
func NewRBFS() *RBFS {
	return &RBFS{core.Meta{
		ProgName:    "R-BFS",
		ProgSuite:   core.SuiteRodinia,
		Desc:        "mask-driven breadth-first search on random graphs",
		Kernels:     2,
		InputNames:  []string{"100k", "1m"},
		Default:     "1m",
		IsIrregular: true,
	}}
}

const (
	rbfsPasses = 3500
	rbfsDeg    = 3
)

func rbfsGraph(input string) (*graph.Graph, float64) {
	switch input {
	case "100k":
		return graph.UniformRandom(12000, rbfsDeg, 0xbf51), 100e3 / 12000.0
	default: // "1m"
		return graph.UniformRandom(24000, rbfsDeg, 0xbf52), 1000e3 / 24000.0
	}
}

// Items reports the REAL input's processed vertices and edges (Table 4).
func (p *RBFS) Items(input string) (int64, int64) {
	g, ratio := rbfsGraph(input)
	return int64(float64(g.N) * ratio), int64(float64(g.M()) * ratio)
}

// Run traverses the graph and validates against the reference BFS.
func (p *RBFS) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	g, ratio := rbfsGraph(input)
	dev.SetTimeScale(ratio * rbfsPasses)

	n := g.N
	dMask := dev.NewArray(n, 1)
	dUpdating := dev.NewArray(n, 1)
	dVisited := dev.NewArray(n, 1)
	dCost := dev.NewArray(n, 4)
	dRow := dev.NewArray(n+1, 4)
	dCol := dev.NewArray(g.M(), 4)

	cost := make([]int32, n)
	mask := make([]bool, n)
	updating := make([]bool, n)
	visited := make([]bool, n)
	for i := range cost {
		cost[i] = -1
	}
	src := 0
	cost[src] = 0
	mask[src] = true
	visited[src] = true

	more := true
	for more {
		more = false
		// Kernel 1: expand masked nodes. Ordered: threads of different
		// blocks write the same scattered cost/updating entries.
		dev.LaunchOrdered("Kernel", (n+255)/256, 256, func(c *sim.Ctx) {
			v := c.TID()
			if v >= n {
				return
			}
			c.Load(dMask.At(v), 1)
			if !mask[v] {
				return
			}
			mask[v] = false
			c.Store(dMask.At(v), 1)
			c.Load(dRow.At(v), 8)
			row := g.Neighbors(v)
			for k, w := range row {
				c.Load(dCol.At(int(g.RowPtr[v])+k), 4)
				c.Load(dVisited.At(int(w)), 1) // scattered
				if !visited[w] {
					cost[w] = cost[v] + 1
					updating[w] = true
					c.Store(dCost.At(int(w)), 4)
					c.Store(dUpdating.At(int(w)), 1)
				}
			}
			c.IntOps(6 + 2*len(row))
		})
		// Kernel 2: commit updates into the next frontier. Ordered: all
		// blocks write the shared `more` flag.
		dev.LaunchOrdered("Kernel2", (n+255)/256, 256, func(c *sim.Ctx) {
			v := c.TID()
			if v >= n {
				return
			}
			c.Load(dUpdating.At(v), 1)
			if updating[v] {
				mask[v] = true
				visited[v] = true
				updating[v] = false
				more = true
				c.Store(dMask.At(v), 1)
				c.Store(dVisited.At(v), 1)
				c.Store(dUpdating.At(v), 1)
			}
			c.IntOps(4)
		})
	}

	ref := graph.BFSLevels(g, src)
	for v := range ref {
		if cost[v] != ref[v] {
			return core.Validatef(p.Name(), "cost[%d] = %d, want %d", v, cost[v], ref[v])
		}
	}
	return nil
}
