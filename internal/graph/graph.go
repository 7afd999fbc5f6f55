// Package graph is the graph substrate for the irregular benchmarks: a CSR
// (compressed sparse row) representation, deterministic generators standing
// in for the paper's inputs (road maps, uniform random k-way graphs), and
// sequential reference algorithms used to validate the GPU implementations.
package graph

import (
	"fmt"

	"repro/internal/xrand"
)

// Graph is a directed graph in CSR form. Undirected graphs store both arc
// directions.
type Graph struct {
	N      int     // number of nodes
	RowPtr []int32 // length N+1
	Col    []int32 // length M (edge targets)
	Weight []int32 // optional, length M
}

// M returns the number of (directed) edges.
func (g *Graph) M() int { return len(g.Col) }

// Degree returns the out-degree of node v.
func (g *Graph) Degree(v int) int { return int(g.RowPtr[v+1] - g.RowPtr[v]) }

// Neighbors returns the adjacency slice of node v.
func (g *Graph) Neighbors(v int) []int32 {
	return g.Col[g.RowPtr[v]:g.RowPtr[v+1]]
}

// EdgeWeights returns the weight slice of node v's edges (nil if unweighted).
func (g *Graph) EdgeWeights(v int) []int32 {
	if g.Weight == nil {
		return nil
	}
	return g.Weight[g.RowPtr[v]:g.RowPtr[v+1]]
}

// Validate checks structural invariants.
func (g *Graph) Validate() error {
	if len(g.RowPtr) != g.N+1 {
		return fmt.Errorf("graph: rowptr length %d, want %d", len(g.RowPtr), g.N+1)
	}
	if g.RowPtr[0] != 0 || int(g.RowPtr[g.N]) != len(g.Col) {
		return fmt.Errorf("graph: rowptr endpoints wrong")
	}
	for v := 0; v < g.N; v++ {
		if g.RowPtr[v] > g.RowPtr[v+1] {
			return fmt.Errorf("graph: rowptr not monotone at %d", v)
		}
	}
	for _, c := range g.Col {
		if c < 0 || int(c) >= g.N {
			return fmt.Errorf("graph: edge target %d out of range", c)
		}
	}
	if g.Weight != nil && len(g.Weight) != len(g.Col) {
		return fmt.Errorf("graph: weight length mismatch")
	}
	return nil
}

// builder accumulates an edge list and freezes it into CSR.
type builder struct {
	n     int
	src   []int32
	dst   []int32
	wgt   []int32
	wants bool
}

func newBuilder(n int, weighted bool) *builder {
	return &builder{n: n, wants: weighted}
}

func (b *builder) addEdge(u, v int, w int32) {
	b.src = append(b.src, int32(u))
	b.dst = append(b.dst, int32(v))
	if b.wants {
		b.wgt = append(b.wgt, w)
	}
}

func (b *builder) addBoth(u, v int, w int32) {
	b.addEdge(u, v, w)
	b.addEdge(v, u, w)
}

func (b *builder) build() *Graph {
	g := &Graph{N: b.n, RowPtr: make([]int32, b.n+1)}
	for _, s := range b.src {
		g.RowPtr[s+1]++
	}
	for i := 0; i < b.n; i++ {
		g.RowPtr[i+1] += g.RowPtr[i]
	}
	g.Col = make([]int32, len(b.dst))
	if b.wants {
		g.Weight = make([]int32, len(b.dst))
	}
	cursor := make([]int32, b.n)
	copy(cursor, g.RowPtr[:b.n])
	for i, s := range b.src {
		p := cursor[s]
		cursor[s]++
		g.Col[p] = b.dst[i]
		if b.wants {
			g.Weight[p] = b.wgt[i]
		}
	}
	return g
}

// RoadLattice generates a road-network-like undirected weighted graph: a
// rows x cols lattice (high diameter, low degree, like the paper's USA road
// maps) with a fraction of diagonal short-cuts and removed street segments.
// Weights model street lengths (1..1000).
func RoadLattice(rows, cols int, seed uint64) *Graph {
	rng := xrand.New(seed)
	n := rows * cols
	b := newBuilder(n, true)
	// Node ids are randomly permuted: real road-map files do not enumerate
	// nodes in spatial order, which is what makes graph codes' neighbor
	// accesses uncoalesced on the GPU.
	perm := rng.Perm(n)
	id := func(r, c int) int { return perm[r*cols+c] }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := id(r, c)
			if c+1 < cols && rng.Float64() > 0.03 { // a few dead ends
				b.addBoth(u, id(r, c+1), int32(1+rng.Intn(1000)))
			}
			if r+1 < rows && rng.Float64() > 0.03 {
				b.addBoth(u, id(r+1, c), int32(1+rng.Intn(1000)))
			}
			if r+1 < rows && c+1 < cols && rng.Float64() < 0.05 { // diagonals
				b.addBoth(u, id(r+1, c+1), int32(1+rng.Intn(1400)))
			}
		}
	}
	return b.build()
}

// UniformRandom generates an undirected graph with n nodes and roughly
// degree edges per node, uniformly random endpoints (SHOC's k-way graph).
func UniformRandom(n, degree int, seed uint64) *Graph {
	rng := xrand.New(seed)
	b := newBuilder(n, true)
	for u := 0; u < n; u++ {
		for k := 0; k < degree; k++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			b.addBoth(u, v, int32(1+rng.Intn(100)))
		}
	}
	return b.build()
}

// BFSLevels is the sequential reference BFS, returning each node's level
// from src (-1 if unreachable).
func BFSLevels(g *Graph, src int) []int32 {
	lev := make([]int32, g.N)
	for i := range lev {
		lev[i] = -1
	}
	lev[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(int(v)) {
			if lev[w] < 0 {
				lev[w] = lev[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return lev
}

// Dijkstra is the sequential reference shortest-path algorithm, returning
// distances from src (MaxInt64 if unreachable). Weights must be present and
// non-negative.
func Dijkstra(g *Graph, src int) []int64 {
	const inf = int64(1) << 62
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	h := &distHeap{items: []distItem{{0, int32(src)}}}
	for h.len() > 0 {
		it := h.pop()
		if it.d > dist[it.v] {
			continue
		}
		row := g.Neighbors(int(it.v))
		wts := g.EdgeWeights(int(it.v))
		for i, w := range row {
			nd := it.d + int64(wts[i])
			if nd < dist[w] {
				dist[w] = nd
				h.push(distItem{nd, w})
			}
		}
	}
	return dist
}

type distItem struct {
	d int64
	v int32
}

type distHeap struct{ items []distItem }

func (h *distHeap) len() int { return len(h.items) }

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].d <= h.items[i].d {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].d < h.items[small].d {
			small = l
		}
		if r < len(h.items) && h.items[r].d < h.items[small].d {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// MSTWeight is the sequential reference minimum-spanning-forest weight
// (Kruskal with union-find) for an undirected weighted graph stored with
// both arc directions.
func MSTWeight(g *Graph) int64 {
	edges := make([]wedge, 0, g.M()/2)
	for u := 0; u < g.N; u++ {
		row := g.Neighbors(u)
		wts := g.EdgeWeights(u)
		for i, v := range row {
			if int32(u) < v { // each undirected edge once
				edges = append(edges, wedge{wts[i], int32(u), v})
			}
		}
	}
	sortEdges(edges)
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var total int64
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
			total += int64(e.w)
		}
	}
	return total
}

// wedge is a weighted undirected edge used by the Kruskal reference.
type wedge struct {
	w    int32
	u, v int32
}

func sortEdges(edges []wedge) {
	// Simple bottom-up merge sort by weight (avoids reflection-based sort in
	// a hot path and keeps the package dependency-free).
	n := len(edges)
	buf := make([]wedge, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if edges[i].w <= edges[j].w {
					buf[k] = edges[i]
					i++
				} else {
					buf[k] = edges[j]
					j++
				}
				k++
			}
			for i < mid {
				buf[k] = edges[i]
				i++
				k++
			}
			for j < hi {
				buf[k] = edges[j]
				j++
				k++
			}
			copy(edges[lo:hi], buf[lo:hi])
		}
	}
}
