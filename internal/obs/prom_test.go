package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/promtext"
)

// TestPromExposition renders a populated registry and checks the exposition
// is lint-clean with the expected conventions: namespace prefix, _total on
// counters, device-labeled simulate family, histogram invariants.
func TestPromExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("measure_cache_hits").Add(7)
	reg.Counter("sweep_jobs_total").Add(3) // name already ends in _total
	reg.Counter("simulate_runs_device_K20c").Add(5)
	reg.Counter("simulate_runs_device_GTX1080").Add(2)
	reg.Gauge("pool_workers_in_use").Set(4)
	h := reg.Histogram("stage_simulate_seconds")
	h.Observe(3 * time.Microsecond)
	h.Observe(500 * time.Millisecond)
	h.Observe(2 * time.Second)

	var buf bytes.Buffer
	if err := promtext.Write(&buf, reg.PromFamilies()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	if errs := promtext.LintText(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("exposition not lint-clean: %v\n%s", errs, text)
	}

	for _, want := range []string{
		"gpuchard_measure_cache_hits_total 7",
		"gpuchard_sweep_jobs_total 3", // no double _total suffix
		`gpuchard_simulate_runs_total{device="GTX1080"} 2`,
		`gpuchard_simulate_runs_total{device="K20c"} 5`,
		"gpuchard_pool_workers_in_use 4",
		"# TYPE gpuchard_stage_simulate_seconds histogram",
		`gpuchard_stage_simulate_seconds_bucket{le="+Inf"} 3`,
		"gpuchard_stage_simulate_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "gpuchard_sweep_jobs_total_total") {
		t.Error("counter suffix doubled")
	}
	if strings.Contains(text, "simulate_runs_device_") {
		t.Error("per-device counters leaked as separate families")
	}

	// Families are emitted sorted, so the exposition is deterministic.
	var buf2 bytes.Buffer
	if err := promtext.Write(&buf2, reg.PromFamilies()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two renders of the same registry state differ")
	}
}

// TestPromHistogramBuckets pins the bucket mapping: registry bucket i counts
// durations in [2^i, 2^(i+1)) µs, so its cumulative le bound is 2^(i+1) µs
// in seconds.
func TestPromHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("stage_x_seconds")
	h.Observe(3 * time.Microsecond) // bucket 1 ([2,4) µs) → cumulative from le=4e-06

	fams := reg.PromFamilies()
	var hist *promtext.Family
	for i := range fams {
		if fams[i].Name == "gpuchard_stage_x_seconds" {
			hist = &fams[i]
		}
	}
	if hist == nil {
		t.Fatal("histogram family missing")
	}
	// 33 finite buckets + +Inf + _sum + _count.
	if len(hist.Samples) != histBuckets+3 {
		t.Fatalf("histogram has %d samples, want %d", len(hist.Samples), histBuckets+3)
	}
	sawLe4us := false
	for _, s := range hist.Samples {
		if s.Suffix != "_bucket" {
			continue
		}
		le := s.Labels[len(s.Labels)-1].Value
		switch le {
		case "2e-06":
			if s.Value != "0" {
				t.Errorf("le=2e-06 bucket = %s, want 0 (3µs observation lands above it)", s.Value)
			}
		case "4e-06":
			sawLe4us = true
			if s.Value != "1" {
				t.Errorf("le=4e-06 bucket = %s, want 1", s.Value)
			}
		}
	}
	if !sawLe4us {
		t.Error("expected a le=4e-06 bucket boundary")
	}
}

// TestPromLabels checks instance labels propagate to every sample.
func TestPromLabels(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("measure_cache_hits").Inc()
	reg.Counter("simulate_runs_device_K20c").Inc()

	var buf bytes.Buffer
	if err := promtext.Write(&buf, reg.PromFamilies(promtext.Label{Name: "worker", Value: "w0"})); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `gpuchard_measure_cache_hits_total{worker="w0"} 1`) {
		t.Errorf("plain counter missing worker label:\n%s", text)
	}
	if !strings.Contains(text, `gpuchard_simulate_runs_total{worker="w0",device="K20c"} 1`) {
		t.Errorf("device counter missing worker label:\n%s", text)
	}
	if errs := promtext.LintText(buf.Bytes()); len(errs) != 0 {
		t.Errorf("labeled exposition not lint-clean: %v", errs)
	}
}

// TestPromJSONUnchanged guards the satellite requirement: adding the text
// exposition must not disturb the frozen JSON snapshot shape.
func TestPromJSONUnchanged(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("measure_cache_hits").Add(2)
	var before bytes.Buffer
	if err := reg.WriteJSON(&before); err != nil {
		t.Fatal(err)
	}
	// Rendering the text exposition is read-only.
	var promBuf bytes.Buffer
	if err := promtext.Write(&promBuf, reg.PromFamilies()); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := reg.WriteJSON(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("rendering the exposition changed the JSON snapshot")
	}
	if !bytes.HasPrefix(before.Bytes(), []byte("{\n  \"counters\":")) {
		t.Errorf("JSON snapshot shape drifted: %s", before.Bytes())
	}
}
