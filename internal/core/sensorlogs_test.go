package core

import (
	"context"
	"testing"

	"repro/internal/k20power"
	"repro/internal/kepler"
)

// SensorLogs re-derives the logs Measure analyzed: at the four canonical
// configurations, every repetition's log analyzes bitwise to the result's
// repetition, on the runner that measured it and on one warmed from the
// trace store it filled, which replays with zero captures.
func TestSensorLogsReproduceReps(t *testing.T) {
	ctx := context.Background()
	combos := EnumerateCombos([]Program{computeBoundToy(4000), memoryBoundToy(3000)}, kepler.Configs, false)
	dir := t.TempDir()
	fresh := storeRunner(t, dir)
	if err := fresh.MeasureList(ctx, combos); err != nil {
		t.Fatal(err)
	}
	warm := storeRunner(t, dir)
	for _, run := range []struct {
		name string
		r    *Runner
	}{{"fresh", fresh}, {"store", warm}} {
		name, r := run.name, run.r
		results, err := r.MeasureEach(ctx, combos)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range combos {
			res := results[i]
			if res == nil {
				t.Fatalf("%s: %s@%s excluded", name, c.Program.Name(), c.Clocks.Name)
			}
			logs, err := r.SensorLogs(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			if len(logs) != r.Repetitions || len(res.Reps) != r.Repetitions {
				t.Fatalf("%s: %s@%s: %d logs, %d repetitions, want %d", name, c.Program.Name(), c.Clocks.Name, len(logs), len(res.Reps), r.Repetitions)
			}
			for rep, log := range logs {
				m, err := k20power.Analyze(log, c.Clocks.Device())
				if err != nil || m != res.Reps[rep] {
					t.Errorf("%s: %s@%s rep %d: log analyzes to %+v (%v), result has %+v",
						name, c.Program.Name(), c.Clocks.Name, rep, m, err, res.Reps[rep])
				}
			}
		}
	}
	if captures := counter(warm, "trace_cache_captures"); captures != 0 {
		t.Errorf("the store-warmed runner captured %d traces, want 0", captures)
	}
}
