//go:build !race

// The race detector makes sync.Pool drop a share of its items at random,
// so allocation counts are only meaningful in a normal build.

package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sim"
)

// replayGrid returns the K20c's default frontier grid; grid[0] is the
// default configuration.
func replayGrid(t *testing.T) []kepler.Clocks {
	t.Helper()
	dev := kepler.K20cDevice()
	grid, err := dev.Grid(dev.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// TestReplayedMeasureAllocs budgets the allocations of one replayed
// measurement (three repetitions through timeline, perturb, sensor and
// analysis). The replayed device, its timeline, the per-repetition buffers
// and the analysis and median scratch come from a pool, and the noise seeds
// hash their parts without formatting them, so the count does not grow with
// the number of launches or the length of the sensor log. It is 7 on this
// program: the cache entry, the measurement state, the seeds, the Result
// and its repetitions (three appends).
func TestReplayedMeasureAllocs(t *testing.T) {
	ctx := context.Background()
	r := NewRunner()
	p := insensitiveToy("allocs", nil)
	if _, err := r.Measure(ctx, p, "default", kepler.Default); err != nil {
		t.Fatal(err)
	}
	grid := replayGrid(t)
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
	const budget = 7
	if allocs > budget {
		t.Errorf("a replayed Measure allocates %.0f times, budget %d", allocs, budget)
	}
}

// manyLaunches is the length of manyLaunchToy's timeline.
const manyLaunches = 512

// manyLaunchToy issues manyLaunches small compute launches, each standing
// for a stretch of repeated executions, so its timeline holds hundreds of
// launch records and gaps: any allocation a replay path makes per launch
// costs it kilobytes per call.
func manyLaunchToy(name string) *toyProgram {
	return &toyProgram{
		name:  name,
		suite: SuiteSDK,
		run: func(dev *sim.GPU) error {
			dev.SetTimeScale(100)
			for i := 0; i < manyLaunches; i++ {
				l := dev.Launch(fmt.Sprintf("k%d", i%3), 64, 128, func(c *sim.Ctx) { c.FP32Ops(200) })
				dev.Repeat(l, 400)
			}
			return nil
		},
	}
}

// allocatedBytes returns the fewest heap bytes allocated while f ran,
// over five runs: TotalAlloc counts the whole process, so a goroutine
// another test left behind can only add to a run, never take away.
func allocatedBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestReplayedMeasureBytes bounds the heap bytes of one replayed
// measurement of a 512-launch timeline. The replayed device and the
// timeline are pooled with the repetitions' buffers, so what remains is
// the result and the per-measurement bookkeeping: under 2 KiB however long
// the timeline. Any per-launch allocation — even one pointer per launch —
// adds 4 KiB.
func TestReplayedMeasureBytes(t *testing.T) {
	ctx := context.Background()
	r := NewRunner()
	p := manyLaunchToy("bytes-measure")
	if _, err := r.Measure(ctx, p, "default", kepler.Default); err != nil {
		t.Fatal(err)
	}
	grid := replayGrid(t)
	if _, err := r.Measure(ctx, p, "default", grid[1]); err != nil {
		t.Fatal(err) // warm the pool
	}
	const runs = 10
	next := 2
	bytes := allocatedBytes(func() {
		for _, clk := range grid[next : next+runs] {
			if _, err := r.Measure(ctx, p, "default", clk); err != nil {
				t.Fatal(err)
			}
		}
		next += runs
	})
	const budget = 3 << 10
	if per := bytes / runs; per > budget {
		t.Errorf("a replayed Measure of %d launches allocates %d bytes, budget %d", manyLaunches, per, budget)
	}
}

// TestAttributionSweepBytes bounds the heap bytes AttributionSweep spends
// per row on a 512-launch timeline beyond the row's own launch
// attributions: the sweep replays every row into one device, so only the
// first row pays for the device's launch records and gaps. Any per-launch
// allocation per row — a fresh replay, or launch rows grown by append —
// exceeds the budget.
func TestAttributionSweepBytes(t *testing.T) {
	ctx := context.Background()
	r := NewRunner()
	p := manyLaunchToy("bytes-attrib")
	grid := replayGrid(t)[:30]
	if _, err := AttributionSweep(ctx, r, []Program{p}, grid[:1]); err != nil {
		t.Fatal(err) // capture the trace
	}
	var rows []ProgramAttribution
	bytes := allocatedBytes(func() {
		var err error
		if rows, err = AttributionSweep(ctx, r, []Program{p}, grid); err != nil {
			t.Fatal(err)
		}
	})
	if n := len(rows[0].Attribution.Launches); n != manyLaunches {
		t.Fatalf("%d launch rows, want %d", n, manyLaunches)
	}
	// The runtime hands out objects above 32 KiB in whole 8 KiB pages.
	pages := func(b uintptr) uint64 { return uint64(b+8<<10-1) &^ (8<<10 - 1) }
	rowBytes := pages(manyLaunches * unsafe.Sizeof(power.LaunchAttribution{}))
	device := pages(manyLaunches * (unsafe.Sizeof(sim.Launch{}) + unsafe.Sizeof(&sim.Launch{}) + 2*unsafe.Sizeof(sim.Gap{})))
	const perRow = 2 << 10
	budget := device + uint64(len(grid))*(rowBytes+perRow)
	if bytes > budget {
		t.Errorf("AttributionSweep of %d rows allocates %d bytes, budget %d (%d per row's launches, %d for one device)",
			len(grid), bytes, budget, rowBytes, device)
	}
}
