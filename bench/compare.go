package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per workload and end-to-end metric, B judged
// against A by the metric's bound from BENCHMARK.json.
const (
	verdictWithin     = "within"     // B's median is no worse than A's by more than the bound
	verdictWorse      = "worse"      // B's median is worse by more than the bound
	verdictUnresolved = "unresolved" // a side's run-to-run spread is wider than the bound
)

// judge compares the runs of two sets on one metric. The spread of a set is
// the distance between its quartiles as a share of its median. When a
// spread exceeds the bound the comparison cannot resolve a change of the
// bound's size, unless every B run reads better than every A run.
func judge(m metricSpec, a, b []float64) string {
	bound := *m.Bound
	ma, mb := median(a), median(b)
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	if (spreadOf(a) > bound || spreadOf(b) > bound) && !allBetter {
		return verdictUnresolved
	}
	limit := ma * (1 + bound)
	if m.Better == "higher" {
		limit = ma * (1 - bound)
	}
	if better(limit, mb) {
		return verdictWorse
	}
	return verdictWithin
}

// spreadOf is the interquartile distance of xs as a share of its median.
func spreadOf(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// comparison is one row of the -compare table.
type comparison struct {
	workload, metric, unit string
	a, b                   []float64
	bound                  float64
	verdict                string
}

// compareRecords compares the untraced runs of two record sets, per
// workload and end-to-end metric, and adds a failed_frac and a
// wrong_results row per workload, where any increase is worse.
func compareRecords(sp *spec, a, b []record) []comparison {
	values := func(recs []record, workload, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if r.Workload != workload || r.Trace != 0 {
				continue
			}
			if v, ok := r.Result.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	counts := func(recs []record, workload string) (failed, attempted, wrong int) {
		for _, r := range recs {
			if r.Workload == workload && r.Trace == 0 {
				failed += r.Result.Failed
				attempted += r.Result.Attempted
				wrong += r.Wrong
			}
		}
		return failed, attempted, wrong
	}
	var rows []comparison
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			av, bv := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			rows = append(rows, comparison{
				workload: w.Name, metric: m.Name, unit: m.Unit,
				a: av, b: bv, bound: *m.Bound, verdict: judge(m, av, bv),
			})
		}
		fa, na, wa := counts(a, w.Name)
		fb, nb, wb := counts(b, w.Name)
		if na == 0 || nb == 0 {
			continue
		}
		fracA, fracB := float64(fa)/float64(na), float64(fb)/float64(nb)
		rows = append(rows,
			comparison{workload: w.Name, metric: "failed_frac", unit: "ratio", a: []float64{fracA}, b: []float64{fracB}, verdict: increaseVerdict(fracA, fracB)},
			comparison{workload: w.Name, metric: "wrong_results", unit: "count", a: []float64{float64(wa)}, b: []float64{float64(wb)}, verdict: increaseVerdict(float64(wa), float64(wb))},
		)
	}
	return rows
}

func increaseVerdict(a, b float64) string {
	if b > a {
		return verdictWorse
	}
	return verdictWithin
}

// runCompare prints the comparison of two record files and exits 1 when a
// metric got worse.
func runCompare(sp *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rows := compareRecords(sp, a, b)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "bench: the files share no workload with untraced runs")
		return 1
	}
	fmt.Fprintf(stdout, "A = %s\nB = %s\n", pathA, pathB)
	fmt.Fprintf(stdout, "%-14s %-14s %-6s %-32s %-32s %-6s %s\n", "workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "bound", "verdict")
	code := 0
	for _, r := range rows {
		bound := "any"
		if r.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", r.bound*100)
		}
		fmt.Fprintf(stdout, "%-14s %-14s %-6s %-32s %-32s %-6s %s\n", r.workload, r.metric, r.unit, summary(r.a), summary(r.b), bound, r.verdict)
		if r.verdict == verdictWorse {
			code = 1
		}
	}
	return code
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", median(xs), q1, q3, len(xs))
}
