package graph

import (
	"testing"
	"testing/quick"
)

func TestRoadLatticeStructure(t *testing.T) {
	g := RoadLattice(20, 30, 1)
	if g.N != 600 {
		t.Fatalf("n = %d", g.N)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Road networks: low average degree.
	avg := float64(g.M()) / float64(g.N)
	if avg < 2 || avg > 5 {
		t.Errorf("avg degree %.2f, want road-like 2..5", avg)
	}
	// High diameter: BFS from corner reaches far levels.
	lev := BFSLevels(g, 0)
	max := int32(0)
	for _, l := range lev {
		if l > max {
			max = l
		}
	}
	if max < 20 {
		t.Errorf("max level %d, want >= rows+cols scale", max)
	}
}

func TestRoadLatticeDeterministic(t *testing.T) {
	a := RoadLattice(10, 10, 7)
	b := RoadLattice(10, 10, 7)
	if a.M() != b.M() {
		t.Fatal("generator not deterministic")
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] || a.Weight[i] != b.Weight[i] {
			t.Fatal("generator not deterministic")
		}
	}
	c := RoadLattice(10, 10, 8)
	if c.M() == a.M() {
		same := true
		for i := range a.Col {
			if a.Col[i] != c.Col[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds gave identical graphs")
		}
	}
}

func TestUniformRandomDegree(t *testing.T) {
	g := UniformRandom(1000, 8, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := float64(g.M()) / float64(g.N)
	if avg < 14 || avg > 16.5 {
		t.Errorf("avg degree %.2f, want ~16 (8 undirected)", avg)
	}
}

func TestBFSLevelsSmall(t *testing.T) {
	// Path graph 0-1-2-3.
	b := newBuilder(4, false)
	b.addBoth(0, 1, 0)
	b.addBoth(1, 2, 0)
	b.addBoth(2, 3, 0)
	g := b.build()
	lev := BFSLevels(g, 0)
	want := []int32{0, 1, 2, 3}
	for i := range want {
		if lev[i] != want[i] {
			t.Errorf("lev[%d] = %d, want %d", i, lev[i], want[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := newBuilder(3, false)
	b.addBoth(0, 1, 0)
	g := b.build()
	lev := BFSLevels(g, 0)
	if lev[2] != -1 {
		t.Errorf("unreachable node level = %d, want -1", lev[2])
	}
}

func TestDijkstraSmall(t *testing.T) {
	// Triangle with a shortcut: 0-1 (1), 1-2 (1), 0-2 (5).
	b := newBuilder(3, true)
	b.addBoth(0, 1, 1)
	b.addBoth(1, 2, 1)
	b.addBoth(0, 2, 5)
	g := b.build()
	d := Dijkstra(g, 0)
	if d[0] != 0 || d[1] != 1 || d[2] != 2 {
		t.Errorf("dist = %v, want [0 1 2]", d)
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	g := RoadLattice(12, 12, 9)
	for i := range g.Weight {
		g.Weight[i] = 1
	}
	lev := BFSLevels(g, 0)
	dist := Dijkstra(g, 0)
	for v := 0; v < g.N; v++ {
		if lev[v] < 0 {
			continue
		}
		if int64(lev[v]) != dist[v] {
			t.Fatalf("node %d: bfs %d, dijkstra %d", v, lev[v], dist[v])
		}
	}
}

func TestMSTWeightSmall(t *testing.T) {
	// Square with diagonal: MST = 3 cheapest spanning edges.
	b := newBuilder(4, true)
	b.addBoth(0, 1, 1)
	b.addBoth(1, 2, 2)
	b.addBoth(2, 3, 3)
	b.addBoth(3, 0, 4)
	b.addBoth(0, 2, 10)
	g := b.build()
	if w := MSTWeight(g); w != 6 {
		t.Errorf("MST weight = %d, want 6", w)
	}
}

func TestPropertyCSRInvariants(t *testing.T) {
	f := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw)%200 + 2
		d := int(dRaw)%6 + 1
		g := UniformRandom(n, d, seed)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBFSLevelsConsistent(t *testing.T) {
	// Every edge (u,v) satisfies |lev(u)-lev(v)| <= 1 when both reached.
	f := func(seed uint64) bool {
		g := UniformRandom(300, 3, seed)
		lev := BFSLevels(g, 0)
		for u := 0; u < g.N; u++ {
			if lev[u] < 0 {
				continue
			}
			for _, v := range g.Neighbors(u) {
				if lev[v] < 0 {
					return false // reachable neighbor must be reached
				}
				diff := lev[u] - lev[v]
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSortEdges(t *testing.T) {
	edges := []wedge{{5, 0, 1}, {1, 1, 2}, {3, 2, 3}, {2, 0, 3}}
	sortEdges(edges)
	for i := 1; i < len(edges); i++ {
		if edges[i-1].w > edges[i].w {
			t.Fatalf("not sorted: %+v", edges)
		}
	}
}

func TestRoadLatticePermutedIDs(t *testing.T) {
	// Node ids must NOT be in spatial (row-major) order: a row-major
	// lattice would make GPU neighbor gathers artificially coalesced.
	g := RoadLattice(30, 30, 3)
	sequential := 0
	total := 0
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			total++
			d := int(w) - v
			if d == 1 || d == -1 {
				sequential++
			}
		}
	}
	if frac := float64(sequential) / float64(total); frac > 0.2 {
		t.Errorf("%.0f%% of edges connect adjacent ids; ids look unpermuted", 100*frac)
	}
}

func TestMSTWeightMatchesOnRoadGraph(t *testing.T) {
	// Cross-check Kruskal against Prim on a small graph.
	g := RoadLattice(10, 12, 5)
	kruskal := MSTWeight(g)
	prim := primWeight(g)
	if kruskal != prim {
		t.Errorf("Kruskal %d != Prim %d", kruskal, prim)
	}
}

// primWeight is an independent MST reference (lazy Prim over all
// components).
func primWeight(g *Graph) int64 {
	visited := make([]bool, g.N)
	var total int64
	for start := 0; start < g.N; start++ {
		if visited[start] {
			continue
		}
		h := &distHeap{}
		h.push(distItem{0, int32(start)})
		for h.len() > 0 {
			it := h.pop()
			if visited[it.v] {
				continue
			}
			visited[it.v] = true
			total += it.d
			row := g.Neighbors(int(it.v))
			wts := g.EdgeWeights(int(it.v))
			for i, w := range row {
				if !visited[w] {
					h.push(distItem{int64(wts[i]), w})
				}
			}
		}
	}
	return total
}
