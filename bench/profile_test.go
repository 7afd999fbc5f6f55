package main

import (
	"os"
	"testing"
	"time"
)

func TestParseTracesBuckets(t *testing.T) {
	f, err := os.Open("testdata/pprof_traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{
		"gc":         20 * ms,
		"warp_merge": 300 * ms,
		"oracles":    70 * ms, // MST's Kruskal reference plus BH's inlined direct summation
		"lane_log":   50 * ms,
		"kernels":    60 * ms,
		"sim_engine": 70 * ms,
		"power":      80 * ms,
		"sensor":     90 * ms,
		"k20power":   100 * ms,
		"frontier":   110 * ms,
		"serve_http": 120 * ms,
		"json":       130 * ms,
		"other":      1340 * ms,
	}
	for _, b := range cpuBuckets {
		if p.buckets[b] != want[b] {
			t.Errorf("bucket %s = %v, want %v", b, p.buckets[b], want[b])
		}
	}
	if p.total != 2540*ms {
		t.Errorf("total = %v, want 2.54s", p.total)
	}
	if p.programs["MST"] != 340*ms || p.programs["BH"] != 140*ms || len(p.programs) != 2 {
		t.Errorf("programs = %v, want MST 340ms and BH 140ms", p.programs)
	}

	layers := make(map[string]float64)
	p.addShares(layers, 2)
	if got := layers["cpu.warp_merge"]; got != 300.0/2540 {
		t.Errorf("cpu.warp_merge = %v, want %v", got, 300.0/2540)
	}
	if got := layers["core.program_cpu_s.MST"]; got != 0.17 {
		t.Errorf("core.program_cpu_s.MST = %v, want 0.17 per round", got)
	}
}
