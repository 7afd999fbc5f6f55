package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/suites"
)

// Replay-at-scale stress: one clock-insensitive suite program swept across
// the full dense DVFS grid (~25× the paper's configuration count). The obs
// counters must prove the cost model — exactly one simulation (capture) for
// the whole grid, every configuration a replay — and the results at
// sampled configurations must be bit-identical to a fresh runner's, which
// captures at another configuration. Run under -race by the Makefile's
// race target (this file is in package core_test so it can use the real
// suite programs without an import cycle).
func TestGridScaleReplayStress(t *testing.T) {
	if testing.Short() {
		t.Skip("dense-grid sweep; skipped in -short")
	}
	dev := kepler.K20cDevice()
	grid, err := dev.Grid(dev.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	p, err := suites.ByName("NN")
	if err != nil {
		t.Fatal(err)
	}
	input := p.DefaultInput()
	ctx := context.Background()

	r := core.NewRunner()
	r.Repetitions = 1
	// MeasureAll drives the grid through the worker pool, so capture,
	// replay and cache paths race against each other under -race.
	if err := r.MeasureAll(ctx, []core.Program{p}, grid, false); err != nil {
		t.Fatalf("MeasureAll over %d configs: %v", len(grid), err)
	}

	snap := r.Metrics().Snapshot()
	if got := snap.Counters["trace_cache_captures"]; got != 1 {
		t.Errorf("trace_cache_captures = %d, want exactly 1 for %d configs", got, len(grid))
	}
	if got, want := snap.Counters["trace_cache_replays"], int64(len(grid)); got != want {
		t.Errorf("trace_cache_replays = %d, want %d (one per config)", got, want)
	}

	// Bit-identity spot check: five configurations spread across the grid,
	// measured by a fresh runner in reverse, so it captures at the grid's
	// last configuration instead of its first.
	nr := core.NewRunner()
	nr.Repetitions = 1
	n := len(grid)
	for _, i := range []int{n - 1, 3 * n / 4, n / 2, n / 4, 0} {
		clk := grid[i]
		replayed, err := r.Measure(ctx, p, input, clk)
		if err != nil {
			t.Fatalf("replayed Measure(%s): %v", clk.Name, err)
		}
		fresh, err := nr.Measure(ctx, p, input, clk)
		if err != nil {
			t.Fatalf("fresh Measure(%s): %v", clk.Name, err)
		}
		if replayed.ActiveTime != fresh.ActiveTime ||
			replayed.Energy != fresh.Energy ||
			replayed.AvgPower != fresh.AvgPower ||
			replayed.TrueActiveTime != fresh.TrueActiveTime ||
			replayed.TrueEnergy != fresh.TrueEnergy {
			t.Errorf("%s: result differs from a fresh runner's:\nreplay: %+v %+v %+v %+v %+v\nfresh:  %+v %+v %+v %+v %+v",
				clk.Name,
				replayed.ActiveTime, replayed.Energy, replayed.AvgPower, replayed.TrueActiveTime, replayed.TrueEnergy,
				fresh.ActiveTime, fresh.Energy, fresh.AvgPower, fresh.TrueActiveTime, fresh.TrueEnergy)
		}
	}
	if got := nr.Metrics().Snapshot().Counters["trace_cache_captures"]; got != 1 {
		t.Errorf("fresh runner captured %d times, want 1", got)
	}
}
