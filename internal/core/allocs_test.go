//go:build !race

// The race detector makes sync.Pool drop a share of its items at random,
// so allocation counts are only meaningful in a normal build.

package core

import (
	"context"
	"testing"

	"repro/internal/kepler"
)

// TestReplayedMeasureAllocs budgets the allocations of one replayed
// measurement (three repetitions through timeline, perturb, sensor and
// analysis). The per-repetition buffers come from a pool and the replay
// device allocates its launches in one block, so the count does not grow
// with the length of the sensor log. It is 50 on this program; buffers
// allocated afresh per measurement make it 126.
func TestReplayedMeasureAllocs(t *testing.T) {
	ctx := context.Background()
	r := NewRunner()
	p := insensitiveToy("allocs", nil)
	if _, err := r.Measure(ctx, p, "default", kepler.Default); err != nil {
		t.Fatal(err)
	}
	dev := kepler.K20cDevice()
	grid, err := dev.Grid(dev.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	next := 1 // grid[0] is the default, already measured
	allocs := testing.AllocsPerRun(40, func() {
		if _, err := r.Measure(ctx, p, "default", grid[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if got := r.Metrics().Snapshot().Counters["trace_cache_replays"]; got != int64(next) {
		t.Fatalf("%d replays, want %d: every Measure must replay", got, next)
	}
	const budget = 64
	if allocs > budget {
		t.Errorf("a replayed Measure allocates %.0f times, budget %d", allocs, budget)
	}
}
