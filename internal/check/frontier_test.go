package check

import (
	"testing"

	"repro/internal/frontier"
	"repro/internal/kepler"
	"repro/internal/suites"
)

// --- negative controls for the dense-grid frontier invariants ---

// fakeFrontier builds a single-row synthetic frontier result from parallel
// (time, energy) series, self-consistent the way a real sweep would be:
// derived EDP/ED²P, sweet spots by exhaustive argmin, optimizer agreeing
// with the EDP argmin.
func fakeFrontier(times, energies []float64) *frontier.Result {
	res := &frontier.Result{
		Program: "SYN", Input: "in",
		EDPIdx: -1, ED2PIdx: -1, DefaultIdx: -1,
	}
	row := make([]int, len(times))
	for i := range times {
		t, e := times[i], energies[i]
		res.Points = append(res.Points, frontier.Point{
			Config: kepler.Clocks{
				Name: kepler.GridName(324+14*i, 2600), CoreMHz: 324 + 14*i, MemMHz: 2600,
			},
			Time: t, Energy: e, Power: e / t,
			EDP: e * t, ED2P: e * t * t,
			MeasTime: t, MeasEnergy: e, Measurable: true,
		})
		row[i] = i
		if res.EDPIdx < 0 || e*t < res.Points[res.EDPIdx].EDP {
			res.EDPIdx = i
		}
		if res.ED2PIdx < 0 || e*t*t < res.Points[res.ED2PIdx].ED2P {
			res.ED2PIdx = i
		}
	}
	res.Rows = [][]int{row}
	res.Opt = frontier.OptResult{BestIdx: res.EDPIdx, Evals: len(times), GridSize: len(times)}
	return res
}

func TestFrontierRowsDetectRuntimeRise(t *testing.T) {
	opt := DefaultOptions()
	var st Stats

	// Clean row: runtime falls with core clock, energy is a valley.
	clean := fakeFrontier(
		[]float64{4.0, 3.0, 2.5, 2.2, 2.0},
		[]float64{300, 260, 250, 255, 270},
	)
	if vs, n := checkFrontierRows(clean, opt, &st); len(vs) != 0 || n == 0 {
		t.Fatalf("clean frontier flagged: %v (n=%d)", vs, n)
	}

	// Runtime rising 10% at a higher core clock must fire.
	rise := fakeFrontier(
		[]float64{4.0, 3.0, 3.3, 2.2, 2.0},
		[]float64{300, 260, 250, 255, 270},
	)
	vs, _ := checkFrontierRows(rise, opt, &st)
	if violationCount(vs, "runtime rose") == 0 {
		t.Errorf("10%% runtime rise not flagged: %v", vs)
	}
}

func TestFrontierRowsDetectDoubleDip(t *testing.T) {
	opt := DefaultOptions()
	var st Stats

	// Energy dips, rises, then dips below the first minimum again: the
	// second descent breaks the valley shape after the global minimum.
	dip := fakeFrontier(
		[]float64{4.0, 3.0, 2.5, 2.2, 2.0},
		[]float64{300, 250, 290, 285, 240},
	)
	vs, n := checkFrontierRows(dip, opt, &st)
	if violationCount(vs, "the row valley") == 0 {
		t.Errorf("double-dip energy curve not flagged: %v", vs)
	}
	if n == 0 {
		t.Error("no checks counted")
	}
}

func TestFrontierConsistencyDetectsDominatedSweetSpot(t *testing.T) {
	res := fakeFrontier(
		[]float64{4.0, 3.0, 2.5, 2.2, 2.0},
		[]float64{300, 260, 250, 255, 270},
	)
	// Default at the EDP argmin: never strictly dominates it (equal point).
	res.DefaultIdx = res.EDPIdx
	if vs, n := checkFrontierConsistency(res); len(vs) != 0 || n == 0 {
		t.Fatalf("consistent frontier flagged: %v (n=%d)", vs, n)
	}

	// Corrupt the ED²P spot to sit strictly above and to the right of the
	// default — the default now dominates it on both axes.
	res.DefaultIdx = 2
	res.ED2PIdx = 3
	res.Points[3].Time = res.Points[2].Time + 0.5
	res.Points[3].Energy = res.Points[2].Energy + 20
	vs, _ := checkFrontierConsistency(res)
	if violationCount(vs, "ED2P sweet spot") == 0 {
		t.Errorf("dominated ED2P sweet spot not flagged: %v", vs)
	}

	// No default located: nothing to compare against.
	res.DefaultIdx = -1
	if vs, n := checkFrontierConsistency(res); len(vs) != 0 || n != 0 {
		t.Errorf("frontier without a default produced checks: %v (n=%d)", vs, n)
	}
}

// TestFrontierProgramsSubset pins the evenly-spaced subset selection.
func TestFrontierProgramsSubset(t *testing.T) {
	all := suites.All()
	sub := frontierPrograms(all, 6)
	if len(sub) != 6 {
		t.Fatalf("subset of 6 has %d programs", len(sub))
	}
	seen := map[string]bool{}
	for _, p := range sub {
		if seen[p.Name()] {
			t.Errorf("duplicate program %s in subset", p.Name())
		}
		seen[p.Name()] = true
	}
	if got := frontierPrograms(all, 0); len(got) != len(all) {
		t.Errorf("n=0 must return the full list, got %d", len(got))
	}
	if got := frontierPrograms(all, len(all)+5); len(got) != len(all) {
		t.Errorf("n beyond the list must return the full list, got %d", len(got))
	}
}

// TestFrontierSweepMarginsWithinTolerance: the shared DefaultOptions sweep
// ran the frontier invariants over the selfcheck grid; on the model's
// smooth ground-truth surface the worst margins must stay inside tolerance
// (they are exactly zero for every program — see DefaultOptions).
func TestFrontierSweepMarginsWithinTolerance(t *testing.T) {
	_, rep := sharedSweep(t)
	opt := DefaultOptions()
	if rep.Stats.MaxFrontierTimeRise > opt.FrontierTimeTol {
		t.Errorf("frontier runtime margin %v exceeds tolerance %v", rep.Stats.MaxFrontierTimeRise, opt.FrontierTimeTol)
	}
	if rep.Stats.MaxFrontierValleyErr > opt.FrontierValleyTol {
		t.Errorf("frontier valley margin %v exceeds tolerance %v", rep.Stats.MaxFrontierValleyErr, opt.FrontierValleyTol)
	}
}
