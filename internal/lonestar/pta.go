package lonestar

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// PTA is LonestarGPU's points-to analysis: Andersen-style flow- and
// context-insensitive inclusion-constraint solving. Points-to sets are
// bitsets; copy edges propagate whole sets, and load/store constraints add
// new copy edges as the sets grow, so the work is input dependent in the
// extreme — the paper singles PTA out as the code whose behaviour changes
// the most across inputs. The paper's inputs are constraint sets extracted
// from vim (small), pine (medium) and tshark (large).
type PTA struct{ core.Meta }

// NewPTA constructs the points-to analysis benchmark.
func NewPTA() *PTA {
	return &PTA{core.Meta{
		ProgName:    "PTA",
		ProgSuite:   core.SuiteLonestar,
		Desc:        "Andersen-style inclusion-based points-to analysis",
		Kernels:     40,
		InputNames:  []string{"vim", "pine", "tshark"},
		Default:     "tshark",
		IsIrregular: true,
	}}
}

// ptaConstraints is a synthetic constraint system shaped like a C program's:
// address-of, copy, load and store constraints over pointer variables.
type ptaConstraints struct {
	vars   int
	words  int        // bitset words per variable
	addrOf [][2]int32 // p = &x
	copies [][2]int32 // p = q
	loads  [][2]int32 // p = *q
	stores [][2]int32 // *p = q
}

func ptaInput(input string) (*ptaConstraints, float64, error) {
	var vars int
	var realVars float64
	switch input {
	case "vim":
		vars, realVars = 1500, 95e3
	case "pine":
		vars, realVars = 2500, 160e3
	case "tshark":
		vars, realVars = 4000, 1200e3
	default:
		return nil, 0, fmt.Errorf("PTA: unknown input %q", input)
	}
	rng := xrand.New(xrand.HashString("pta-" + input))
	cs := &ptaConstraints{vars: vars, words: (vars + 63) / 64}
	nAddr := vars / 2
	nCopy := vars * 2
	nLoad := vars / 3
	nStore := vars / 3
	for i := 0; i < nAddr; i++ {
		cs.addrOf = append(cs.addrOf, [2]int32{int32(rng.Intn(vars)), int32(rng.Intn(vars))})
	}
	for i := 0; i < nCopy; i++ {
		// Skewed: some variables are copy hubs (like generic pointers).
		p := int32(rng.Intn(vars))
		q := int32(rng.Intn(vars / 4))
		if rng.Float64() < 0.5 {
			p, q = q, p
		}
		cs.copies = append(cs.copies, [2]int32{p, q})
	}
	for i := 0; i < nLoad; i++ {
		cs.loads = append(cs.loads, [2]int32{int32(rng.Intn(vars)), int32(rng.Intn(vars))})
	}
	for i := 0; i < nStore; i++ {
		cs.stores = append(cs.stores, [2]int32{int32(rng.Intn(vars)), int32(rng.Intn(vars))})
	}
	return cs, realVars / float64(vars), nil
}

// Run solves the constraints to a fixpoint and validates the result against
// an independent sequential solver (exact set equality).
func (p *PTA) Run(ctx context.Context, dev *sim.GPU, input string) error {
	cs, ratio, err := ptaInput(input)
	if err != nil {
		return err
	}
	// Points-to sets grow sub-linearly in the variable count, so the full
	// variable ratio overstates the work; a third is calibrated.
	dev.SetTimeScale(ratio / 3)

	pts := make([][]uint64, cs.vars) // points-to bitsets
	for i := range pts {
		pts[i] = make([]uint64, cs.words)
	}
	for _, a := range cs.addrOf {
		pts[a[0]][a[1]/64] |= 1 << uint(a[1]%64)
	}
	// Dynamic copy edges (including those added by load/store resolution).
	// Membership is a dense bitset over the dst*vars+src edge space: the
	// load/store rules re-propose the same edges every round, so the
	// membership test is the hottest host-side operation of the whole
	// benchmark — a map here dominated the simulation's profile. The
	// bitset changes only the cost of the test; edgeList order (and hence
	// every recorded kernel operation) is untouched.
	copyEdges := newEdgeSet(cs.vars)
	var edgeList [][2]int32
	addEdge := func(dst, src int32) {
		if copyEdges.insert(dst, src) {
			edgeList = append(edgeList, [2]int32{dst, src})
		}
	}
	for _, e := range cs.copies {
		addEdge(e[0], e[1])
	}

	dPts := dev.NewArray(cs.vars*cs.words, 8)
	dEdges := dev.NewArray(8*cs.vars, 8)
	dWork := dev.NewArray(1, 4)

	union := func(dst, src int32) bool {
		changed := false
		d, s := pts[dst], pts[src]
		for w := range d {
			nv := d[w] | s[w]
			if nv != d[w] {
				d[w] = nv
				changed = true
			}
		}
		return changed
	}

	for round := 0; ; round++ {
		changed := false
		// Copy-edge propagation kernel (the bulk of PTA's 40 kernels are
		// variants of this rule over partitioned edge ranges).
		edges := edgeList
		// Ordered: unions read points-to sets other blocks are widening and
		// every block writes the shared changed flag.
		dev.LaunchOrdered("pta_copy_rule", (len(edges)+127)/128, 128, func(c *sim.Ctx) {
			i := c.TID()
			if i >= len(edges) {
				return
			}
			e := edges[i]
			c.Load(dEdges.At(i%(8*cs.vars)), 8)
			c.LoadRep(dPts.At(int(e[1])*cs.words), 8, cs.words)
			c.LoadRep(dPts.At(int(e[0])*cs.words), 8, cs.words)
			if union(e[0], e[1]) {
				changed = true
				c.StoreRep(dPts.At(int(e[0])*cs.words), 8, cs.words)
				c.AtomicOp(dWork.At(0))
			}
			c.IntOps(3 * cs.words)
		})
		// Load rule: p = *q adds edges p <- t for every t in pts(q).
		before := len(edgeList)
		// Ordered: all blocks append to the shared constraint edge list.
		dev.LaunchOrdered("pta_load_rule", (len(cs.loads)+127)/128, 128, func(c *sim.Ctx) {
			i := c.TID()
			if i >= len(cs.loads) {
				return
			}
			l := cs.loads[i]
			c.LoadRep(dPts.At(int(l[1])*cs.words), 8, cs.words)
			targets := 0
			for w := 0; w < cs.words; w++ {
				bits := pts[l[1]][w]
				for bits != 0 {
					b := bits & (-bits)
					t := int32(w*64) + int32(trailingZeros(bits))
					addEdge(l[0], t)
					bits ^= b
					targets++
				}
			}
			c.IntOps(4*cs.words + 3*targets)
			if targets > 0 {
				c.AtomicOp(dWork.At(0))
			}
		})
		// Store rule: *p = q adds edges t <- q for every t in pts(p).
		// Ordered: all blocks append to the shared constraint edge list.
		dev.LaunchOrdered("pta_store_rule", (len(cs.stores)+127)/128, 128, func(c *sim.Ctx) {
			i := c.TID()
			if i >= len(cs.stores) {
				return
			}
			s := cs.stores[i]
			c.LoadRep(dPts.At(int(s[0])*cs.words), 8, cs.words)
			targets := 0
			for w := 0; w < cs.words; w++ {
				bits := pts[s[0]][w]
				for bits != 0 {
					b := bits & (-bits)
					t := int32(w*64) + int32(trailingZeros(bits))
					addEdge(t, s[1])
					bits ^= b
					targets++
				}
			}
			c.IntOps(4*cs.words + 3*targets)
			if targets > 0 {
				c.AtomicOp(dWork.At(0))
			}
		})
		if len(edgeList) > before {
			changed = true
		}
		if !changed {
			break
		}
	}

	// Independent sequential solver for validation.
	ref := ptaSolveRef(cs)
	for v := 0; v < cs.vars; v++ {
		for w := 0; w < cs.words; w++ {
			if pts[v][w] != ref[v][w] {
				return core.Validatef(p.Name(), "points-to set of v%d differs from reference", v)
			}
		}
	}
	return nil
}

// ptaSolveRef is a straightforward worklist solver used as the oracle.
func ptaSolveRef(cs *ptaConstraints) [][]uint64 {
	pts := make([][]uint64, cs.vars)
	for i := range pts {
		pts[i] = make([]uint64, cs.words)
	}
	for _, a := range cs.addrOf {
		pts[a[0]][a[1]/64] |= 1 << uint(a[1]%64)
	}
	// Worklist solver: propagate only from variables whose points-to set
	// changed, following out-edge adjacency. The solution is the unique
	// least fixpoint of the monotone constraint system, so this computes
	// exactly what the original propagate-every-edge-each-round loop did.
	edges := newEdgeSet(cs.vars)
	out := make([][]int32, cs.vars)
	queued := make([]bool, cs.vars)
	// delta[v] holds the bits added to pts[v] since v was last propagated;
	// pops forward only the delta, while edge creation unions the full
	// source set — together every bit reaches every successor.
	delta := make([][]uint64, cs.vars)
	for i := range delta {
		delta[i] = make([]uint64, cs.words)
	}
	tmp := make([]uint64, cs.words)
	var queue []int32
	push := func(v int32) {
		if !queued[v] {
			queued[v] = true
			queue = append(queue, v)
		}
	}
	union := func(d int32, src []uint64) bool {
		changed := false
		dst, dl := pts[d], delta[d]
		for w, b := range src {
			if nb := b &^ dst[w]; nb != 0 {
				dst[w] |= nb
				dl[w] |= nb
				changed = true
			}
		}
		return changed
	}
	grew := false
	add := func(d, s int32) {
		if edges.insert(d, s) {
			out[s] = append(out[s], d)
			grew = true
			if union(d, pts[s]) {
				push(d)
			}
		}
	}
	for _, e := range cs.copies {
		add(e[0], e[1])
	}
	for {
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			queued[v] = false
			dv := delta[v]
			copy(tmp, dv)
			for w := range dv {
				dv[w] = 0
			}
			for _, d := range out[v] {
				if union(d, tmp) {
					push(d)
				}
			}
		}
		grew = false
		for _, l := range cs.loads {
			for w := 0; w < cs.words; w++ {
				bits := pts[l[1]][w]
				for bits != 0 {
					t := int32(w*64) + int32(trailingZeros(bits))
					add(l[0], t)
					bits &= bits - 1
				}
			}
		}
		for _, s := range cs.stores {
			for w := 0; w < cs.words; w++ {
				bits := pts[s[0]][w]
				for bits != 0 {
					t := int32(w*64) + int32(trailingZeros(bits))
					add(t, s[1])
					bits &= bits - 1
				}
			}
		}
		if !grew && len(queue) == 0 {
			return pts
		}
	}
}

// trailingZeros is bits.TrailingZeros64 under the name the bit-enumeration
// loops above use; the loops run once per points-to member per round, so
// the intrinsic matters.
func trailingZeros(x uint64) int {
	return bits.TrailingZeros64(x)
}

// edgeSet is a dense bitset over the vars x vars copy-edge space,
// replacing a map[[2]int32]bool whose hashing dominated PTA's host-side
// profile. At the paper's largest input (4000 variables) it is 2 MB.
type edgeSet struct {
	vars  int
	words []uint64
}

func newEdgeSet(vars int) *edgeSet {
	return &edgeSet{vars: vars, words: make([]uint64, (vars*vars+63)/64)}
}

// insert adds (dst, src) and reports whether it was absent.
func (s *edgeSet) insert(dst, src int32) bool {
	k := uint64(dst)*uint64(s.vars) + uint64(src)
	w, b := k/64, uint64(1)<<(k%64)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	return true
}
