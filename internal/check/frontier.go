package check

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/kepler"
)

// Dense-grid frontier invariants. The four-configuration invariants above
// pin the paper's operating points; these extend the DVFS physics to the
// generated grid (internal/kepler.Grid) through the frontier sweep:
//
//   - dvfs-grid runtime: within a (memory clock, ECC) row, raising the core
//     clock never lengthens the ground-truth runtime;
//   - dvfs-grid energy valley: within a row, ground-truth energy is
//     valley-shaped in the core clock — non-increasing until its minimum
//     (static energy dominates: finishing sooner saves energy), then
//     non-decreasing (the V²f dynamic term dominates). A second dip would
//     mean the power model lost convexity;
//   - frontier-consistency: the paper's default configuration never
//     strictly dominates a reported sweet spot (EDP, ED²P or the
//     optimizer's pick) in (runtime, energy) — otherwise the "sweet spot"
//     would be a worse choice on both axes.
//
// The invariants run on a reduced grid (selfcheckGrid) over a program
// subset (frontierPrograms) so `gpuchar -selfcheck` stays affordable.

// frontierSubsetSize is how many programs the frontier invariants sweep.
const frontierSubsetSize = 6

// frontierPrograms picks the subset the frontier invariants sweep: n
// programs evenly spaced over the provided list, so every suite tends to be
// represented.
func frontierPrograms(programs []core.Program, n int) []core.Program {
	if n <= 0 || n >= len(programs) {
		return programs
	}
	out := make([]core.Program, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, programs[i*len(programs)/n])
	}
	return out
}

// checkFrontier sweeps the subset across the dense grid and evaluates the
// three frontier invariant classes. Hard sweep errors abort; physics
// inconsistencies become violations.
func checkFrontier(ctx context.Context, r *core.Runner, programs []core.Program, dev *kepler.Device, rep *Report) error {
	spec := selfcheckGrid(dev)
	for _, p := range frontierPrograms(programs, frontierSubsetSize) {
		res, err := frontier.Sweep(ctx, r, p, frontier.Options{Device: dev, Spec: spec})
		if err != nil {
			return fmt.Errorf("check: frontier sweep %s: %w", p.Name(), err)
		}
		vs, n := checkFrontierRows(res, &rep.Stats)
		rep.add(vs, n)
		vs, n = checkFrontierConsistency(res)
		rep.add(vs, n)
	}
	return nil
}

// checkFrontierRows evaluates the per-row runtime and energy-shape
// invariants of one frontier result.
func checkFrontierRows(res *frontier.Result, st *Stats) ([]Violation, int) {
	var vs []Violation
	n := 0
	for _, row := range res.Rows {
		pts := make([]*frontier.Point, 0, len(row))
		for _, idx := range row {
			if res.Points[idx].Measurable {
				pts = append(pts, &res.Points[idx])
			}
		}
		if len(pts) < 2 {
			continue
		}

		// Runtime non-increasing in core clock.
		for i := 1; i < len(pts); i++ {
			n++
			rise := pts[i].Time/pts[i-1].Time - 1
			if rise > st.MaxFrontierTimeRise {
				st.MaxFrontierTimeRise = rise
			}
			if rise > frontierTimeTol {
				vs = append(vs, Violation{
					Invariant: "dvfs-grid",
					Program:   res.Program, Input: res.Input, Config: pts[i].Config.Name,
					Detail: fmt.Sprintf("runtime rose %.4f (tol %.4f) when core clock increased %d->%d MHz",
						rise, frontierTimeTol, pts[i-1].Config.CoreMHz, pts[i].Config.CoreMHz),
				})
			}
		}

		// Energy valley-shaped in core clock: non-increasing up to the row
		// minimum, non-decreasing after.
		min := 0
		for i := range pts {
			if pts[i].Energy < pts[min].Energy {
				min = i
			}
		}
		for i := 1; i < len(pts); i++ {
			n++
			var wiggle float64
			if i <= min {
				wiggle = pts[i].Energy/pts[i-1].Energy - 1 // must not rise before the valley floor
			} else {
				wiggle = 1 - pts[i].Energy/pts[i-1].Energy // must not fall after it
			}
			if wiggle > st.MaxFrontierValleyErr {
				st.MaxFrontierValleyErr = wiggle
			}
			if wiggle > frontierValleyTol {
				side := "rose before"
				if i > min {
					side = "fell after"
				}
				vs = append(vs, Violation{
					Invariant: "dvfs-grid",
					Program:   res.Program, Input: res.Input, Config: pts[i].Config.Name,
					Detail: fmt.Sprintf("energy %s the row valley (%s) by %.4f (tol %.4f)",
						side, pts[min].Config.Name, wiggle, frontierValleyTol),
				})
			}
		}
	}
	return vs, n
}

// checkFrontierConsistency asserts the default configuration never strictly
// dominates a reported sweet spot.
func checkFrontierConsistency(res *frontier.Result) ([]Violation, int) {
	if res.DefaultIdx < 0 {
		return nil, 0
	}
	def := &res.Points[res.DefaultIdx]
	var vs []Violation
	n := 0
	for _, spot := range []struct {
		kind string
		idx  int
	}{
		{"EDP", res.EDPIdx},
		{"ED2P", res.ED2PIdx},
		{"optimizer", res.Opt.BestIdx},
	} {
		if spot.idx < 0 {
			continue
		}
		n++
		pt := &res.Points[spot.idx]
		if frontier.Dominates(def, pt) {
			vs = append(vs, Violation{
				Invariant: "frontier-consistency",
				Program:   res.Program, Input: res.Input, Config: pt.Config.Name,
				Detail: fmt.Sprintf("default (%.3fs, %.1fJ) strictly dominates the %s sweet spot (%.3fs, %.1fJ)",
					def.Time, def.Energy, spot.kind, pt.Time, pt.Energy),
			})
		}
	}
	return vs, n
}

// selfcheckGrid reduces a device's default dense grid to the selfcheck
// resolution: ~8 core clocks spanning the device's full ladder range crossed
// with its extreme memory clocks — enough rows and resolution to exercise
// both invariant shapes at a fraction of the dense grid's sweep cost. On
// the K20c this is the 324..758-by-62 x {2600, 324} grid.
func selfcheckGrid(dev *kepler.Device) kepler.GridSpec {
	spec := dev.DefaultGrid()
	step := (spec.CoreMaxMHz - spec.CoreMinMHz) / 7
	if step < 1 {
		step = 1
	}
	spec.CoreStepMHz = step
	if len(spec.MemMHz) > 2 {
		spec.MemMHz = []int{spec.MemMHz[0], spec.MemMHz[len(spec.MemMHz)-1]}
	}
	return spec
}
