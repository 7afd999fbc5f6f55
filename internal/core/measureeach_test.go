package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/kepler"
	"repro/internal/sim"
)

// tinyToy finishes before the sensor collects enough samples: every
// measurement of it is an exclusion.
func tinyToy(name string) *toyProgram {
	return &toyProgram{
		name:  name,
		suite: SuiteSDK,
		run: func(dev *sim.GPU) error {
			dev.Launch("k", 16, 256, func(c *sim.Ctx) { c.FP32Ops(10) })
			return nil
		},
	}
}

// brokenToy fails its self-check: a hard failure, not an exclusion.
func brokenToy(name string) *toyProgram {
	return &toyProgram{
		name:  name,
		suite: SuiteSDK,
		run:   func(*sim.GPU) error { return Validatef(name, "deliberate failure") },
	}
}

func TestMeasureEachIndexAligned(t *testing.T) {
	compute, memory, tiny := computeBoundToy(4000), memoryBoundToy(3000), tinyToy("toy-tiny-each")
	combos := []Combo{
		{compute, "default", kepler.F614},
		{tiny, "default", kepler.Default},
		{memory, "default", kepler.Default},
		{compute, "default", kepler.Default},
	}
	r := NewRunner()
	results, err := r.MeasureEach(context.Background(), combos)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(combos) {
		t.Fatalf("%d results for %d combos", len(results), len(combos))
	}
	for i, c := range combos {
		res := results[i]
		if c.Program == tiny {
			if res != nil {
				t.Errorf("combo %d: excluded toy returned %+v, want nil", i, res)
			}
			continue
		}
		if res == nil || res.Program != c.Program.Name() || res.Config != c.Clocks.Name {
			t.Errorf("combo %d (%s@%s): result %+v not aligned", i, c.Program.Name(), c.Clocks.Name, res)
		}
	}
}

// MeasureEach's read-back is not a cache lookup: a cold call counts one miss
// per combination and no hit, and a second call counts one hit per
// combination, all of them MeasureList's.
func TestMeasureEachCountsOnlyMeasureList(t *testing.T) {
	combos := []Combo{
		{computeBoundToy(4000), "default", kepler.Default},
		{computeBoundToy(4000), "default", kepler.F614},
		{memoryBoundToy(3000), "default", kepler.Default},
		{tinyToy("toy-tiny-counted"), "default", kepler.Default},
	}
	r := NewRunner()
	n := int64(len(combos))
	for call, want := range []struct{ hits, misses int64 }{{0, n}, {n, n}} {
		if _, err := r.MeasureEach(context.Background(), combos); err != nil {
			t.Fatal(err)
		}
		snap := r.Metrics().Snapshot()
		if hits, misses := snap.Counters["measure_cache_hits"], snap.Counters["measure_cache_misses"]; hits != want.hits || misses != want.misses {
			t.Errorf("after call %d: hits %d misses %d, want %d and %d", call+1, hits, misses, want.hits, want.misses)
		}
	}
}

// The error is the first hard failure in combo order, whatever the worker
// count and whichever failure finished first.
func TestMeasureEachFirstErrorInComboOrder(t *testing.T) {
	combos := []Combo{
		{computeBoundToy(4000), "default", kepler.Default},
		{brokenToy("toy-broken-first"), "default", kepler.Default},
		{tinyToy("toy-tiny-between"), "default", kepler.Default},
		{brokenToy("toy-broken-second"), "default", kepler.Default},
	}
	var msgs []string
	for _, workers := range []int{1, 2} {
		r := NewRunner()
		r.Workers = workers
		results, err := r.MeasureEach(context.Background(), combos)
		if err == nil {
			t.Fatalf("workers %d: hard failures swallowed", workers)
		}
		if results != nil {
			t.Errorf("workers %d: results %v returned alongside the error", workers, results)
		}
		var verr *ValidationError
		if !errors.As(err, &verr) || verr.Program != "toy-broken-first" {
			t.Errorf("workers %d: error %v is not the first combo's ValidationError", workers, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("error depends on the worker count: %q vs %q", msgs[0], msgs[1])
	}
	if strings.Contains(msgs[0], "toy-broken-second") {
		t.Errorf("error names the later failure: %q", msgs[0])
	}
}

func TestMeasureEachCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	trigger := context.CancelFunc(func() { once.Do(cancel) })
	combos := []Combo{{cancelAfterFirstLaunch("toy-each-cancel", &trigger), "default", kepler.Default}}
	for i := 0; i < 3; i++ {
		p := computeBoundToy(4000)
		p.name = fmt.Sprintf("toy-each-%d", i)
		combos = append(combos, Combo{p, "default", kepler.Default})
	}
	results, err := NewRunner().MeasureEach(ctx, combos)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled MeasureEach = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Errorf("canceled MeasureEach returned results %v", results)
	}
}

// Every experiment measures exactly the combinations it reads, through one
// MeasureEach call: on a cold runner, sweep_jobs_total rises by that count.
func TestExperimentsMeasureWhatTheyRead(t *testing.T) {
	ctx := context.Background()
	toys := toySet()
	compute := computeBoundToy(4000)
	fast := &toyVariant{toyProgram: computeBoundToy(2000), base: compute.Name()}
	fast.name = "toy-compute-fast"
	multi := &toyProgram{name: "toy-multi", suite: SuiteSDK, inputs: []string{"small", "large"}}
	multi.runInput = func(dev *sim.GPU, _ string) error {
		l := dev.Launch("k", 1024, 256, func(c *sim.Ctx) { c.FP32Ops(800) })
		dev.Repeat(l, 4000)
		return nil
	}
	items := &toyItems{toyProgram: computeBoundToy(4000), v: 200e3, e: 400e3}
	k20c := kepler.K20cDevice()
	cases := []struct {
		name   string
		combos int
		run    func(*Runner) error
	}{
		{"Table2", len(toys), func(r *Runner) error { _, err := Table2(ctx, r, toys, nil); return err }},
		{"FigureRatios", 2 * len(toys), func(r *Runner) error {
			_, err := FigureRatios(ctx, r, toys, kepler.Default, kepler.F614)
			return err
		}},
		{"Table3", 2 * len(kepler.Configs), func(r *Runner) error {
			_, _, err := Table3(ctx, r, compute, []Program{fast}, "default", nil)
			return err
		}},
		{"Table4", 1, func(r *Runner) error { _, err := Table4(ctx, r, []Program{items}, nil); return err }},
		{"Figure5", len(multi.Inputs()), func(r *Runner) error {
			_, err := Figure5(ctx, r, append([]Program{multi}, toys...), nil)
			return err
		}},
		{"Figure6", len(toys) * len(kepler.Configs), func(r *Runner) error { _, err := Figure6(ctx, r, toys, nil); return err }},
		{"CrossGPU", 2 * len(kepler.Models), func(r *Runner) error { _, err := CrossGPU(ctx, r, []Program{compute}); return err }},
		{"DeviceCompare", len(kepler.Profiles()), func(r *Runner) error {
			_, err := DeviceCompare(ctx, r, []Program{compute}, nil)
			return err
		}},
		{"FreqSweep", 1 + len(k20c.Settings), func(r *Runner) error { _, err := FreqSweep(ctx, r, compute, nil); return err }},
		{"Classify", len(toys) * len(kepler.Configs), func(r *Runner) error { _, err := Classify(ctx, r, toys, nil); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner()
			r.Repetitions = 1
			if err := tc.run(r); err != nil {
				t.Fatal(err)
			}
			if got := r.Metrics().Counter("sweep_jobs_total").Value(); got != int64(tc.combos) {
				t.Errorf("sweep_jobs_total = %d, want %d (the combinations it reads)", got, tc.combos)
			}
		})
	}
}

// Table3's base program, Table4 and FreqSweep's base cannot do without
// their measurement: an exclusion there is an error IsInsufficient still
// recognizes.
func TestRequiredExclusionIsInsufficient(t *testing.T) {
	ctx := context.Background()
	tiny := tinyToy("toy-tiny-required")
	r := NewRunner()
	r.Repetitions = 1
	_, _, err3 := Table3(ctx, r, tiny, []Program{computeBoundToy(4000)}, "default", nil)
	_, err4 := Table4(ctx, r, []Program{&toyItems{toyProgram: tiny, v: 1, e: 1}}, nil)
	_, errF := FreqSweep(ctx, r, tiny, nil)
	for name, err := range map[string]error{"Table3": err3, "Table4": err4, "FreqSweep": errF} {
		if !IsInsufficient(err) {
			t.Errorf("%s: error %v not recognized as an exclusion", name, err)
		}
	}
}
