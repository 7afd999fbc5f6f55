package frontier_test

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/kepler"
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
	dev := kepler.K20cDevice()
	grid, err := dev.Grid(dev.DefaultGrid())
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

// TestSweepObsCounters proves the sweep's cost model through the obs
// counters: a program covers the whole ≥80-config grid with exactly one
// simulation (one trace capture), and every measurable point is a replay.
// Uses a fresh runner so the counters are exact, and a cheap program so it
// stays affordable outside -short too.
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
		if len(res.Points) < 80 {
			t.Fatalf("grid has %d configs, want >= 80", len(res.Points))
		}
		snap := r.Metrics().Snapshot()
		if got := snap.Counters["trace_cache_captures"]; got != 1 {
			t.Errorf("trace_cache_captures = %d, want 1: the dense sweep must cost one simulation per (program, input)", got)
		}
		// Every measurable point was priced by replay; sensor-excluded
		// configs replay too but yield no point.
		measurable := 0
		for i := range res.Points {
			if res.Points[i].Measurable {
				measurable++
			}
		}
		if got, want := snap.Counters["frontier_replays"], int64(measurable); got != want {
			t.Errorf("frontier_replays = %d, want %d (measurable of %d)", got, want, len(res.Points))
		}
		if got, want := snap.Counters["trace_cache_replays"], int64(len(res.Points)); got != want {
			t.Errorf("trace_cache_replays = %d, want %d (one per grid point)", got, want)
		}
		if got := snap.Counters["frontier_optimizer_evals"]; got != int64(res.Opt.Evals) || got == 0 {
			t.Errorf("frontier_optimizer_evals = %d, want %d (> 0)", got, res.Opt.Evals)
		}
	})
}

// TestSweepWarmStoreReplays: a store holding the canonical measurements
// serves those points without capturing a trace. The sweep captures once,
// for the first point the store lacks, replays the rest of the grid and
// matches a cold sweep exactly.
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
	if got := warm.Metrics().Snapshot().Counters["trace_cache_captures"]; got != 1 {
		t.Errorf("warm sweep: trace_cache_captures = %d, want 1", got)
	}
	if !reflect.DeepEqual(res, cold) {
		t.Error("warm-store sweep differs from a cold sweep")
	}
}

// TestSweepWorkerCountInvariant: the dense pass measures the grid on every
// worker of the runner's pool, yet a sweep on one worker, on the default
// worker count and on an oversubscribed pool returns DeepEqual results and
// the same counters (all but the pool's own, which count slot traffic).
func TestSweepWorkerCountInvariant(t *testing.T) {
	ctx := context.Background()
	p, err := suites.ByName("NN")
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(workers int) (*frontier.Result, map[string]int64) {
		r := core.NewRunner()
		r.Workers = workers
		res, err := frontier.Sweep(ctx, r, p, frontier.Options{})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		counters := r.Metrics().Snapshot().Counters
		for name := range counters {
			if strings.HasPrefix(name, "pool_") {
				delete(counters, name)
			}
		}
		return res, counters
	}
	serial, serialCounters := sweep(1)
	if serialCounters["frontier_replays"] == 0 {
		t.Fatal("serial sweep replayed nothing")
	}
	for _, workers := range []int{0, 4} {
		res, counters := sweep(workers)
		if !reflect.DeepEqual(res, serial) {
			t.Errorf("Workers=%d: result differs from Workers=1", workers)
		}
		if !reflect.DeepEqual(counters, serialCounters) {
			t.Errorf("Workers=%d: counters %v, want %v", workers, counters, serialCounters)
		}
	}
}
