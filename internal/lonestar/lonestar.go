// Package lonestar implements the seven LonestarGPU applications the paper
// studies — Barnes-Hut, BFS, Delaunay mesh refinement, minimum spanning
// tree, points-to analysis, single-source shortest paths and survey
// propagation — plus the alternate BFS (atomic, wla, wlw, wlc) and SSSP
// (wlc, wln) implementations of the paper's Table 3.
//
// These are the paper's irregular codes: data-dependent control flow,
// uncoalesced accesses and order-dependent convergence. On the simulator
// the order dependence is genuine: the engine runs the blocks of ordered
// launches in a scrambled permutation of (kernel, launch), and the worklist
// algorithms below converge in iteration counts that depend on it. The
// permutation reads no clock, so a program does the same work at every
// configuration.
package lonestar

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Programs returns the seven main LonestarGPU programs in the paper's
// Table 1 order (variants are exposed separately via Variants).
func Programs() []core.Program {
	return []core.Program{
		NewBH(),
		NewLBFS(),
		NewDMR(),
		NewMST(),
		NewPTA(),
		NewSSSP(),
		NewNSP(),
	}
}

// Variants returns the alternate implementations of L-BFS and SSSP studied
// in the paper's Table 3 (and the two BFS variants that are too fast for
// the power sensor).
func Variants() []core.Program {
	return []core.Program{
		NewLBFSAtomic(),
		NewLBFSWLA(),
		NewLBFSWLW(),
		NewLBFSWLC(),
		NewSSSPWLC(),
		NewSSSPWLN(),
	}
}

// Road-map surrogates for the paper's DIMACS inputs. The simulated lattices
// keep the road-network character (degree ~2.6, diameter ~ sqrt(n)); the
// surrogate time scale covers the node-count ratio.
const (
	lakesRows, lakesCols = 110, 220 // ~24k nodes for Great Lakes (2.7M)
	westRows, westCols   = 135, 270 // ~36k nodes for Western USA (6M)
	usaRows, usaCols     = 150, 320 // ~48k nodes for full USA (24M)
)

// roadInput returns the surrogate graph and the real/simulated node ratio
// for one of the paper's road-map input names. The smaller inputs carry a
// boost factor: their real diameters shrink far more slowly than their node
// counts, so a pure node-count ratio would make their runs too short for
// the power sensor (the paper picked inputs long enough to measure).
func roadInput(name string) (g *graph.Graph, ratio float64, err error) {
	switch name {
	case "lakes":
		return graph.RoadLattice(lakesRows, lakesCols, 0x1a1e5), 5 * 2.7e6 / float64(lakesRows*lakesCols), nil
	case "west":
		return graph.RoadLattice(westRows, westCols, 0x3e57), 2 * 6.0e6 / float64(westRows*westCols), nil
	case "usa":
		return graph.RoadLattice(usaRows, usaCols, 0x05a), 23.9e6 / float64(usaRows*usaCols), nil
	}
	return nil, 0, fmt.Errorf("lonestar: unknown road input %q", name)
}

// roadInputs lists the road inputs small to large.
func roadInputs() []string { return []string{"lakes", "west", "usa"} }

// roadItems returns the REAL input's vertex and edge counts (pure node
// ratio, without the small-input measurement boost).
func roadItems(name string) (int64, int64) {
	g, _, err := roadInput(name)
	if err != nil {
		return 0, 0
	}
	var realNodes float64
	switch name {
	case "lakes":
		realNodes = 2.7e6
	case "west":
		realNodes = 6.0e6
	case "usa":
		realNodes = 23.9e6
	}
	ratio := realNodes / float64(g.N)
	return int64(realNodes), int64(float64(g.M()) * ratio)
}
