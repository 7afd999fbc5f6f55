package main

import (
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) of each input, first and third values.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.9, 3.0}, 2.9, 3.1},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	bound := 0.08
	lower := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "rate", Unit: "1/s", Better: "higher", Bound: &bound}
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictWithin},
		{"slightly slower", lower, steady, []float64{10.5, 10.6, 10.4, 10.55, 10.45}, verdictWithin},
		{"much slower", lower, steady, []float64{11.5, 11.6, 11.4, 11.55, 11.45}, verdictWorse},
		{"much faster", lower, steady, []float64{8, 8.1, 7.9, 8.05, 7.95}, verdictWithin},
		{"noisy", lower, steady, []float64{8, 12, 10, 9, 11.5}, verdictUnresolved},
		{"noisy but all better", lower, []float64{10.5, 14, 12, 11, 13.5}, steady, verdictWithin},
		{"higher is better, dropped", higher, steady, []float64{9, 9.1, 8.9, 9.05, 8.95}, verdictWorse},
		{"higher is better, rose", higher, steady, []float64{11.5, 11.6, 11.4, 11.55, 11.45}, verdictWithin},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRecordsCountsFailuresAndWrongResults(t *testing.T) {
	bound := 0.1
	sp := &spec{
		Workloads: []workloadDoc{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: &bound}},
	}
	rec := func(wall float64, failed, wrong int) record {
		return record{Workload: "w", Wrong: wrong, Result: runResult{
			Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{"wall_s": {Value: wall, Unit: "s"}},
		}}
	}
	a := []record{rec(1, 0, 0), rec(1.01, 0, 0), rec(0.99, 0, 0)}
	b := []record{rec(1, 0, 0), rec(1.01, 1, 0), rec(0.99, 0, 2), {Workload: "w", Trace: 1}}
	got := map[string]string{}
	for _, r := range compareRecords(sp, a, b) {
		got[r.metric] = r.verdict
	}
	want := map[string]string{"wall_s": verdictWithin, "failed_frac": verdictWorse, "wrong_results": verdictWorse}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
}
