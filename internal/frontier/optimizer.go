package frontier

// The "chase the sweet spot" optimizer: find the grid's EDP optimum while
// touching far fewer points than the exhaustive sweep. The search structure
// follows the grid's physics: within a (memory clock, ECC) row, EDP as a
// function of core frequency is smooth and near-unimodal (energy falls with
// V²f while runtime rises as 1/f), so a coarse stride per row brackets the
// optimum and a local descent pins it down. Convergence criterion: the
// incumbent's in-row neighbors are both evaluated and no better. Every
// evaluation is a grid lookup (the points are already priced by the sweep);
// Evals counts the unique points touched, which is what a hardware DVFS
// chaser would pay in real measurements.

// OptResult reports the optimizer's outcome.
type OptResult struct {
	// BestIdx is the optimizer's sweet-spot pick (index into Result.Points;
	// -1 when nothing is measurable).
	BestIdx int
	// Evals is the number of unique grid points the optimizer touched.
	Evals int
	// Budget is the evaluation cap it operated under; GridSize the
	// exhaustive sweep's cost for comparison.
	Budget, GridSize int
}

// chase runs the budgeted EDP descent over a swept grid.
func chase(r *Result, opts Options) OptResult {
	out := OptResult{
		BestIdx:  -1,
		GridSize: len(r.Points),
		Budget:   int(optimizerBudget * float64(len(r.Points))),
	}
	seen := make(map[int]bool, out.Budget)
	best := -1
	eval := func(idx int) {
		if idx < 0 || seen[idx] || out.Evals >= out.Budget {
			return
		}
		seen[idx] = true
		out.Evals++
		pt := &r.Points[idx]
		if !pt.Measurable {
			return
		}
		if best < 0 || pt.EDP < r.Points[best].EDP ||
			(pt.EDP == r.Points[best].EDP && idx < best) {
			best = idx
		}
	}

	// Coarse pass: every stride-th core clock per row plus the row's last
	// entry brackets each row's optimum. The canonical configurations are
	// always evaluated too — a DVFS chaser starts from the settings the
	// paper measured (and on interpolated grids they are real anchors that
	// sit off the stride lattice, e.g. 705 and 614 MHz).
	for _, row := range r.Rows {
		for j, idx := range row {
			if j%coarseStride == 0 || j == len(row)-1 || isCanonical(opts.Device, r.Points[idx].Config.Name) {
				eval(idx)
			}
		}
	}

	// Descent: walk the incumbent's in-row neighborhood until it is a local
	// minimum (both neighbors evaluated, neither better) or the budget runs
	// out. Each improvement restarts the walk from the new incumbent, so the
	// search slides along a row toward its valley.
	pos := func(idx int) (row []int, j int) {
		for _, row := range r.Rows {
			for j, k := range row {
				if k == idx {
					return row, j
				}
			}
		}
		return nil, -1
	}
	for best >= 0 && out.Evals < out.Budget {
		row, j := pos(best)
		prev := best
		if j > 0 {
			eval(row[j-1])
		}
		if j < len(row)-1 && best == prev {
			eval(row[j+1])
		}
		if best == prev {
			// Neighbors evaluated and no better: local minimum reached.
			moved := false
			if j > 0 && !seen[row[j-1]] {
				moved = true
			}
			if j < len(row)-1 && !seen[row[j+1]] {
				moved = true
			}
			if !moved {
				break
			}
		}
	}

	out.BestIdx = best
	return out
}
