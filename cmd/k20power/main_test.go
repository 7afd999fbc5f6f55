package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/sensor"
	"repro/internal/suites"
)

// TestEmitAnalyzeRoundTrip: the log -emit writes, read back from its CSV
// and analyzed by the CLI, measures what core.Profile measures on the same
// run. The only slack is the CSV's rounding to 1 ms and 1 mW.
func TestEmitAnalyzeRoundTrip(t *testing.T) {
	const prog, input, seed = "LBM", "100", 7
	var csv bytes.Buffer
	if err := emitLog(&csv, prog+","+input, seed); err != nil {
		t.Fatal(err)
	}
	samples, err := sensor.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	got, err := report(&out, samples)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "active runtime:") {
		t.Errorf("report output lacks the active runtime:\n%s", out.String())
	}

	p, err := suites.ByName(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, raw, want, err := core.Profile(context.Background(), p, input, kepler.Default, seed)
	if err != nil {
		t.Fatal(err)
	}

	const dT, dW = 0.5e-3, 0.5e-3 // half the CSV's 1 ms / 1 mW step
	if len(samples) != len(raw) {
		t.Fatalf("CSV holds %d samples, the run recorded %d", len(samples), len(raw))
	}
	for i := range raw {
		if math.Abs(samples[i].T-raw[i].T) > dT || math.Abs(samples[i].W-raw[i].W) > dW {
			t.Fatalf("sample %d: CSV %+v, recorded %+v", i, samples[i], raw[i])
		}
	}
	if got.ActiveSamples != want.ActiveSamples {
		t.Errorf("active samples %d, want %d", got.ActiveSamples, want.ActiveSamples)
	}
	// The measurement may move by the same rounding: 1 ms of active time,
	// 1 mW of power, and their product rule for the energy.
	near := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.9g, want %.9g ± %.3g", name, got, want, tol)
		}
	}
	near("idle", got.IdleW, want.IdleW, 2*dW)
	near("threshold", got.ThresholdW, want.ThresholdW, 2*dW)
	near("active time", got.ActiveTime, want.ActiveTime, 2*dT)
	near("average power", got.AvgPower, want.AvgPower, 2*dW)
	near("energy", got.Energy, want.Energy, 2*dT*want.AvgPower+2*dW*want.ActiveTime)
}
