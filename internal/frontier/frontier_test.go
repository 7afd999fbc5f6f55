package frontier_test

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/kepler"
	"repro/internal/sim"
	"repro/internal/suites"
)

// The property tests run over real sweep results for all 34 programs, not
// mocks: one shared dense-grid sweep (single repetition; the properties are
// about the frontier math, not measurement variance) feeds every test in
// the package. Heavy by construction, so -short skips them.

var (
	sweepOnce    sync.Once
	sweepResults []*frontier.Result
	sweepErr     error
)

func sharedSweep(t *testing.T) []*frontier.Result {
	t.Helper()
	if testing.Short() {
		t.Skip("dense frontier sweep over all programs; skipped in -short")
	}
	sweepOnce.Do(func() {
		r := core.NewRunner()
		r.Repetitions = 1
		// Jitter off: the properties are about the frontier math on the
		// model's smooth (time, energy) surface. With jitter on, adjacent
		// grid points differ by ~0.8% noise, so the exhaustive argmin is
		// jitter-determined and no sub-exhaustive optimizer could match it.
		r.RuntimeJitter = 0
		sweepResults, sweepErr = frontier.SweepAll(context.Background(), r, suites.All(), frontier.Options{})
	})
	if sweepErr != nil {
		t.Fatalf("SweepAll: %v", sweepErr)
	}
	return sweepResults
}

func TestSweepCoversGrid(t *testing.T) {
	results := sharedSweep(t)
	if len(results) != len(suites.All()) {
		t.Fatalf("swept %d programs, want %d", len(results), len(suites.All()))
	}
	grid, err := kepler.Grid(kepler.DefaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if len(res.Points) != len(grid) {
			t.Errorf("%s: %d points, want %d", res.Program, len(res.Points), len(grid))
		}
		if len(res.Points) < 80 {
			t.Errorf("%s: grid too small: %d configs, want >= 80", res.Program, len(res.Points))
		}
		if res.DefaultIdx < 0 || res.Points[res.DefaultIdx].Config.Name != kepler.Default.Name {
			t.Errorf("%s: default config not located (idx %d)", res.Program, res.DefaultIdx)
		}
		measurable := 0
		for i := range res.Points {
			if res.Points[i].Measurable {
				measurable++
			}
		}
		if measurable == 0 {
			t.Errorf("%s: no measurable points", res.Program)
		}
		if res.Sensitive {
			if res.Interpolated() == 0 {
				t.Errorf("%s: sensitive but nothing interpolated", res.Program)
			}
		} else if res.Interpolated() != 0 {
			t.Errorf("%s: insensitive but %d interpolated points", res.Program, res.Interpolated())
		}
	}
}

// TestParetoFrontProperties: the front is sorted by ascending time with
// strictly descending energy, contains no dominated point, and every
// measurable point off the front is dominated by (or coincident with) a
// front point.
func TestParetoFrontProperties(t *testing.T) {
	for _, res := range sharedSweep(t) {
		if len(res.Pareto) == 0 {
			t.Errorf("%s: empty Pareto front", res.Program)
			continue
		}
		onFront := make(map[int]bool, len(res.Pareto))
		for k, idx := range res.Pareto {
			onFront[idx] = true
			pt := &res.Points[idx]
			if !pt.Measurable {
				t.Errorf("%s: front point %d unmeasurable", res.Program, idx)
			}
			if k > 0 {
				prev := &res.Points[res.Pareto[k-1]]
				if prev.Time >= pt.Time {
					t.Errorf("%s: front not sorted by time at %d: %v >= %v", res.Program, k, prev.Time, pt.Time)
				}
				if prev.Energy <= pt.Energy {
					t.Errorf("%s: front energy not strictly descending at %d: %v <= %v", res.Program, k, prev.Energy, pt.Energy)
				}
			}
			for j := range res.Points {
				if frontier.Dominates(&res.Points[j], pt) {
					t.Errorf("%s: front point %s dominated by %s", res.Program, pt.Config.Name, res.Points[j].Config.Name)
				}
			}
		}
		for j := range res.Points {
			pt := &res.Points[j]
			if !pt.Measurable || onFront[j] {
				continue
			}
			covered := false
			for _, idx := range res.Pareto {
				fp := &res.Points[idx]
				if frontier.Dominates(fp, pt) || (fp.Time == pt.Time && fp.Energy == pt.Energy) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("%s: off-front point %s neither dominated nor coincident", res.Program, pt.Config.Name)
			}
		}
	}
}

// TestSweetSpotsOnFront: the exhaustive EDP and ED²P argmins are Pareto
// points (domination implies a strictly smaller Energy·Timeᵏ product).
func TestSweetSpotsOnFront(t *testing.T) {
	for _, res := range sharedSweep(t) {
		for name, idx := range map[string]int{"EDP": res.EDPIdx, "ED2P": res.ED2PIdx} {
			if idx < 0 {
				t.Errorf("%s: no %s sweet spot", res.Program, name)
				continue
			}
			found := false
			for _, f := range res.Pareto {
				if f == idx {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: %s sweet spot %s (idx %d) not on Pareto front", res.Program, name, res.Points[idx].Config.Name, idx)
			}
		}
	}
}

// TestOptimizerChasesSweetSpot: for every program the budgeted optimizer
// lands on the exhaustive-grid EDP argmin (or an equal-EDP configuration)
// using strictly fewer than 30% of the grid's evaluations.
func TestOptimizerChasesSweetSpot(t *testing.T) {
	results := sharedSweep(t)
	maxEvals, totalEvals := 0, 0
	for _, res := range results {
		opt := res.Opt
		if opt.BestIdx < 0 {
			t.Errorf("%s: optimizer found nothing", res.Program)
			continue
		}
		limit := int(0.3 * float64(opt.GridSize))
		if opt.Evals >= limit {
			t.Errorf("%s: optimizer used %d evals, want < %d (30%% of %d)", res.Program, opt.Evals, limit, opt.GridSize)
		}
		want, got := res.Points[res.EDPIdx].EDP, res.Points[opt.BestIdx].EDP
		if got != want {
			t.Errorf("%s: optimizer EDP %v at %s != exhaustive %v at %s (after %d evals)",
				res.Program, got, res.Points[opt.BestIdx].Config.Name,
				want, res.Points[res.EDPIdx].Config.Name, opt.Evals)
		}
		if opt.Evals > maxEvals {
			maxEvals = opt.Evals
		}
		totalEvals += opt.Evals
	}
	t.Logf("optimizer evals: max %d, mean %.1f, grid %d", maxEvals, float64(totalEvals)/float64(len(results)), results[0].Opt.GridSize)
}

// TestDefaultNeverDominatesSweetSpots: frontier consistency — the paper's
// default configuration must not strictly dominate a reported sweet spot
// (otherwise the "sweet spot" would be a worse choice on both axes).
func TestDefaultNeverDominatesSweetSpots(t *testing.T) {
	for _, res := range sharedSweep(t) {
		def := &res.Points[res.DefaultIdx]
		for name, idx := range map[string]int{"EDP": res.EDPIdx, "ED2P": res.ED2PIdx, "optimizer": res.Opt.BestIdx} {
			if idx < 0 {
				continue
			}
			if frontier.Dominates(def, &res.Points[idx]) {
				t.Errorf("%s: default dominates %s sweet spot %s", res.Program, name, res.Points[idx].Config.Name)
			}
		}
	}
}

// clockReader wraps a program with a read of the simulated clock during
// its run. That makes its Go-side evolution configuration-dependent as far
// as the capture layer can tell, so its trace is a clock-sensitive
// tombstone. No shipped program reads the clock mid-run.
type clockReader struct{ core.Program }

func (c clockReader) Name() string { return c.Program.Name() + "-clock" }

func (c clockReader) Run(ctx context.Context, dev *sim.Device, input string) error {
	if err := c.Program.Run(ctx, dev, input); err != nil {
		return err
	}
	_ = dev.Now()
	return nil
}

// newClockReader wraps NN, a cheap program, in a clockReader.
func newClockReader(t *testing.T) core.Program {
	t.Helper()
	p, err := suites.ByName("NN")
	if err != nil {
		t.Fatal(err)
	}
	return clockReader{p}
}

// TestSweepObsCounters proves the sweep's cost model through the obs
// counters: a clock-insensitive program covers the whole ≥80-config grid
// with exactly one simulation (one trace capture, N-1 replays, nothing
// interpolated); a clock-sensitive program (one that reads the simulated
// clock mid-run) triggers the interpolation fallback, flags the
// interpolated points, and simulates only the coarse anchors. Uses fresh
// runners so the counters are exact, and cheap programs so it stays
// affordable outside -short too.
func TestSweepObsCounters(t *testing.T) {
	ctx := context.Background()

	t.Run("insensitive", func(t *testing.T) {
		r := core.NewRunner()
		r.Repetitions = 1
		p, err := suites.ByName("NN")
		if err != nil {
			t.Fatal(err)
		}
		res, err := frontier.Sweep(ctx, r, p, frontier.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sensitive {
			t.Fatalf("NN swept as sensitive")
		}
		if len(res.Points) < 80 {
			t.Fatalf("grid has %d configs, want >= 80", len(res.Points))
		}
		snap := r.Metrics().Snapshot()
		if got := snap.Counters["trace_cache_captures"]; got != 1 {
			t.Errorf("trace_cache_captures = %d, want 1: the dense sweep must cost one simulation per (program, input)", got)
		}
		// Every measurable point except the default (the capture) was priced
		// by replay; sensor-excluded configs replay too but yield no point.
		measurable := 0
		for i := range res.Points {
			if res.Points[i].Measurable {
				measurable++
			}
		}
		if got, want := snap.Counters["frontier_replays"], int64(measurable-1); got != want {
			t.Errorf("frontier_replays = %d, want %d (measurable %d of %d)", got, want, measurable, len(res.Points))
		}
		if got := snap.Counters["frontier_interpolated"]; got != 0 {
			t.Errorf("frontier_interpolated = %d, want 0", got)
		}
		if got := snap.Counters["frontier_optimizer_evals"]; got != int64(res.Opt.Evals) || got == 0 {
			t.Errorf("frontier_optimizer_evals = %d, want %d (> 0)", got, res.Opt.Evals)
		}
	})

	t.Run("sensitive", func(t *testing.T) {
		r := core.NewRunner()
		r.Repetitions = 1
		res, err := frontier.Sweep(ctx, r, newClockReader(t), frontier.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Sensitive {
			t.Fatalf("mid-run clock reader swept as insensitive")
		}
		interpolated := res.Interpolated()
		if interpolated == 0 {
			t.Fatal("sensitive sweep interpolated nothing")
		}
		snap := r.Metrics().Snapshot()
		if got := snap.Counters["frontier_interpolated"]; got != int64(interpolated) {
			t.Errorf("frontier_interpolated = %d, want %d", got, interpolated)
		}
		// Only the coarse anchors simulate; everything else interpolates.
		if sims := res.Simulated(); sims >= len(res.Points)/2 {
			t.Errorf("sensitive sweep simulated %d of %d points, want the coarse fallback to bound it", sims, len(res.Points))
		}
		for _, row := range res.Rows {
			for j, idx := range row {
				pt := &res.Points[idx]
				if !pt.Interpolated {
					continue
				}
				if j == 0 || j == len(row)-1 {
					t.Errorf("row endpoint %s interpolated; endpoints are always anchors", pt.Config.Name)
				}
				if pt.MeasTime != 0 || pt.MeasEnergy != 0 {
					t.Errorf("interpolated point %s carries sensor measurements", pt.Config.Name)
				}
			}
		}
	})
}

// TestSweepSensitivitySplit pins the sweep-strategy routing: every shipped
// program replays densely (ordered launches included), and only a program
// that reads the simulated clock mid-run falls back to interpolation.
func TestSweepSensitivitySplit(t *testing.T) {
	for _, res := range sharedSweep(t) {
		if res.Sensitive || res.Interpolated() != 0 {
			t.Errorf("%s: swept as clock-sensitive (%d interpolated points); every shipped program replays",
				res.Program, res.Interpolated())
		}
	}
	r := core.NewRunner()
	r.Repetitions = 1
	res, err := frontier.Sweep(context.Background(), r, newClockReader(t), frontier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sensitive || res.Interpolated() == 0 {
		t.Errorf("mid-run clock reader: sensitive=%v with %d interpolated points, want the coarse fallback",
			res.Sensitive, res.Interpolated())
	}
}

// TestSweepWarmStoreReplays: a store holding the canonical measurements
// serves the default configuration without capturing a trace. The sweep
// must still learn that the program is clock-insensitive and replay the
// dense grid, matching a cold sweep exactly.
func TestSweepWarmStoreReplays(t *testing.T) {
	ctx := context.Background()
	p, err := suites.ByName("NN")
	if err != nil {
		t.Fatal(err)
	}
	newRunner := func() *core.Runner {
		r := core.NewRunner()
		r.Repetitions = 1
		return r
	}

	cold, err := frontier.Sweep(ctx, newRunner(), p, frontier.Options{})
	if err != nil {
		t.Fatal(err)
	}

	seed := newRunner()
	for _, clk := range kepler.Configs {
		if _, err := seed.Measure(ctx, p, p.DefaultInput(), clk); err != nil && !core.IsInsufficient(err) {
			t.Fatal(err)
		}
	}
	store := filepath.Join(t.TempDir(), "store.json")
	if err := seed.SaveStore(store); err != nil {
		t.Fatal(err)
	}
	warm := newRunner()
	if err := warm.LoadStore(store); err != nil {
		t.Fatal(err)
	}
	res, err := frontier.Sweep(ctx, warm, p, frontier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sensitive || res.Interpolated() != 0 {
		t.Errorf("warm sweep: sensitive=%v with %d interpolated points, want a dense replay",
			res.Sensitive, res.Interpolated())
	}
	if !reflect.DeepEqual(res, cold) {
		t.Error("warm-store sweep differs from a cold sweep")
	}
}
