package shoc

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// TestGreedyClusterDiameter: any cluster grown by greedyCluster respects
// the QT diameter threshold and always contains its seed.
func TestGreedyClusterDiameter(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 60
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
			ys[i] = rng.Float64() * 10
		}
		dist := func(a, b int) float64 {
			dx, dy := xs[a]-xs[b], ys[a]-ys[b]
			return math.Sqrt(dx*dx + dy*dy)
		}
		seedPt := int(seed % uint64(n))
		var candidates []int
		for j := 0; j < n; j++ {
			if j != seedPt && dist(seedPt, j) <= qtcThreshold {
				candidates = append(candidates, j)
			}
		}
		members := greedyCluster(seedPt, candidates, dist)
		if len(members) == 0 || members[0] != seedPt {
			return false
		}
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				if dist(members[a], members[b]) > qtcThreshold+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGreedyClusterMonotoneInCandidates: removing candidates can only
// shrink the grown cluster (the property that makes QT's round sizes
// non-increasing).
func TestGreedyClusterMonotoneInCandidates(t *testing.T) {
	rng := xrand.New(5)
	n := 50
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 4
		ys[i] = rng.Float64() * 4
	}
	dist := func(a, b int) float64 {
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		return math.Sqrt(dx*dx + dy*dy)
	}
	var candidates []int
	for j := 1; j < n; j++ {
		if dist(0, j) <= qtcThreshold {
			candidates = append(candidates, j)
		}
	}
	full := greedyCluster(0, candidates, dist)
	half := greedyCluster(0, candidates[:len(candidates)/2], dist)
	if len(half) > len(full) {
		t.Errorf("fewer candidates grew a bigger cluster: %d > %d", len(half), len(full))
	}
}

// TestMDNeighborListsMatchSortSlice rebuilds every atom's neighbor list
// with the reflection-based sort.Slice the generator used before
// slices.SortFunc and checks that all 8192 lists are identical: both run
// the same pattern-defeating quicksort, so even the order among
// equidistant candidates must agree.
func TestMDNeighborListsMatchSortSlice(t *testing.T) {
	pos, neigh := mdSystem()

	rng := xrand.New(xrand.HashString("md"))
	for range pos {
		rng.Float64()
		rng.Float64()
		rng.Float64()
	}
	for i := range pos {
		var cands []mdCand
		for k := 0; k < 256; k++ {
			j := int32(rng.Intn(mdAtoms))
			if int(j) == i {
				continue
			}
			dx := pos[j][0] - pos[i][0]
			dy := pos[j][1] - pos[i][1]
			dz := pos[j][2] - pos[i][2]
			cands = append(cands, mdCand{dx*dx + dy*dy + dz*dz, j})
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
		for k := 0; k < mdNeighbors; k++ {
			if want := cands[k%len(cands)].j; neigh[i][k] != want {
				t.Fatalf("atom %d neighbor %d = %d, want %d", i, k, neigh[i][k], want)
			}
		}
	}
}

// TestMFChainTableMatchesPerThreadLoop: each entry of MF's chain table must
// be bit-equal to the per-thread chain it stands for, both as read by the
// plain kernels and through the SFU kernels' Sqrt.
func TestMFChainTableMatchesPerThreadLoop(t *testing.T) {
	chain := mfChainTable()
	for r := 0; r < 7; r++ {
		x := 1.0 + float64(r)*1e-9
		for it := 0; it < mfInner; it++ {
			x = x*1.01 - 0.01
		}
		for _, sfu := range []bool{false, true} {
			got, want := chain[r], x
			if sfu {
				got, want = math.Sqrt(got*got), math.Sqrt(want*want)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("residue %d sfu=%v: table %v, per-thread loop %v", r, sfu, got, want)
			}
		}
	}
}
