package lonestar

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// MST is LonestarGPU's minimum spanning tree: Boruvka's algorithm by
// successive relaxations of minimum-weight component edges. Each round runs
// a handful of kernels (minimum-edge search, component merge, pointer
// jumping, compaction); the shrinking component structure makes every round
// more irregular than the last. The paper finds MST to have the highest
// 614 MHz runtime increase of all programs (25%) while still saving 16%
// power — the flagship timing-sensitive irregular code.
type MST struct{ core.Meta }

// NewMST constructs the Boruvka MST benchmark.
func NewMST() *MST {
	return &MST{core.Meta{
		ProgName:    "MST",
		ProgSuite:   core.SuiteLonestar,
		Desc:        "Boruvka minimum spanning tree by edge relaxations",
		Kernels:     7,
		InputNames:  roadInputs(),
		Default:     "usa",
		IsIrregular: true,
	}}
}

// Items reports the real input's vertex and edge counts.
func (p *MST) Items(input string) (int64, int64) {
	return roadItems(input)
}

// Run computes the minimum spanning forest and validates its total weight
// against the sequential Kruskal reference (exact match).
func (p *MST) Run(ctx context.Context, dev *sim.GPU, input string) error {
	g, ratio, err := roadInput(input)
	if err != nil {
		return err
	}
	// Boruvka's rounds grow with log(n) and each round's union-find chases
	// lengthen; the surrogate ratio alone under-represents that.
	dev.SetTimeScale(ratio * 6)

	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		root := x
		for parent[root] != root {
			root = parent[root]
		}
		for parent[x] != root {
			parent[x], x = root, parent[x]
		}
		return root
	}

	dParent := dev.NewArray(g.N, 4)
	dMinEdge := dev.NewArray(g.N, 8)
	dRow := dev.NewArray(g.N+1, 4)
	dCol := dev.NewArray(g.M(), 4)
	dWgt := dev.NewArray(g.M(), 4)
	dTotal := dev.NewArray(1, 8)

	type pick struct {
		w    int32
		u, v int32
	}
	// A consistent total order on undirected edges (weight, endpoints) makes
	// the simultaneous per-component minimum picks safe (the blue rule).
	edgeLess := func(a, b pick) bool {
		if a.w != b.w {
			return a.w < b.w
		}
		alo, ahi := a.u, a.v
		if alo > ahi {
			alo, ahi = ahi, alo
		}
		blo, bhi := b.u, b.v
		if blo > bhi {
			blo, bhi = bhi, blo
		}
		if alo != blo {
			return alo < blo
		}
		return ahi < bhi
	}

	var total int64
	for round := 0; ; round++ {
		// Kernel 1: initialize per-component candidates.
		dev.Launch("dinit", (g.N+511)/512, 512, func(c *sim.Ctx) {
			if c.TID() < g.N {
				c.Store(dMinEdge.At(c.TID()), 8)
				c.IntOps(2)
			}
		})

		// Kernel 2: find the minimum outgoing edge per component
		// (node-parallel scan with atomic minimum per component root).
		best := make(map[int32]pick)
		// Ordered: every block updates the shared per-component best map.
		dev.LaunchOrdered("dfindelemin", (g.N+255)/256, 256, func(c *sim.Ctx) {
			v := c.TID()
			if v >= g.N {
				return
			}
			c.Load(dParent.At(v), 4)
			c.Load(dRow.At(v), 8)
			rv := find(int32(v))
			row := g.Neighbors(v)
			wts := g.EdgeWeights(v)
			base := int(g.RowPtr[v])
			for k, w := range row {
				c.Load(dCol.At(base+k), 4)
				c.Load(dWgt.At(base+k), 4)
				c.Load(dParent.At(int(w)), 4) // scattered find chase
				rw := find(w)
				if rv == rw {
					continue
				}
				cand := pick{w: wts[k], u: int32(v), v: w}
				cur, ok := best[rv]
				if !ok || edgeLess(cand, cur) {
					best[rv] = cand
					c.AtomicOp(dMinEdge.At(int(rv)))
				}
			}
			c.IntOps(6 + 4*len(row))
		})

		if len(best) == 0 {
			break
		}

		// Kernel 3: merge components along the chosen edges.
		roots := make([]int32, 0, len(best))
		for r := range best {
			roots = append(roots, r)
		}
		sort.Slice(roots, func(a, b int) bool { return roots[a] < roots[b] })
		merged := 0
		// Ordered: unions mutate the shared union-find forest and totals.
		dev.LaunchOrdered("dfindcompmintwo", (len(roots)+255)/256, 256, func(c *sim.Ctx) {
			i := c.TID()
			if i >= len(roots) {
				return
			}
			b := best[roots[i]]
			c.Load(dMinEdge.At(int(roots[i])), 8)
			ru, rw := find(b.u), find(b.v)
			if ru != rw {
				// Union by smaller root id (deterministic).
				if ru < rw {
					parent[rw] = ru
				} else {
					parent[ru] = rw
				}
				total += int64(b.w)
				merged++
				c.AtomicOp(dParent.At(int(ru)))
				c.Store(dTotal.At(0), 8)
			}
			c.IntOps(12)
		})

		// Kernel 4: pointer jumping to flatten the component forest.
		// Ordered: threads read parent chains other blocks are compressing.
		dev.LaunchOrdered("dverify_min_elem", (g.N+255)/256, 256, func(c *sim.Ctx) {
			v := c.TID()
			if v >= g.N {
				return
			}
			c.Load(dParent.At(v), 4)
			hops := 0
			x := int32(v)
			for parent[x] != x {
				x = parent[x]
				hops++
				c.Load(dParent.At(int(x)), 4)
			}
			parent[v] = x
			c.IntOps(2 + 2*hops)
			c.Store(dParent.At(v), 4)
		})

		// Kernels 5-7: edge-list compaction passes (Lonestar removes
		// intra-component edges between rounds).
		dev.Launch("delcomp", (g.M()+511)/512, 512, func(c *sim.Ctx) {
			if c.TID() < g.M() {
				c.Load(dCol.At(c.TID()), 4)
				c.IntOps(3)
			}
		})
		dev.Launch("dcompact", (g.M()+511)/512, 512, func(c *sim.Ctx) {
			if c.TID() < g.M() {
				c.Load(dCol.At(c.TID()), 4)
				c.IntOps(2)
				c.Store(dCol.At(c.TID()), 4)
			}
		})
		dev.Launch("dcountcomp", (g.N+511)/512, 512, func(c *sim.Ctx) {
			if c.TID() < g.N {
				c.Load(dParent.At(c.TID()), 4)
				c.IntOps(2)
				c.AtomicOp(dTotal.At(0))
			}
		})

		if merged == 0 {
			break
		}
	}

	want := graph.MSTWeight(g)
	if total != want {
		return core.Validatef(p.Name(), "forest weight %d, want %d", total, want)
	}
	return nil
}
