package k20power

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sensor"
)

// cleanSensor records a timeline without noise so analysis accuracy can be
// checked tightly.
func cleanSensor(segs []power.Segment, seed uint64) []sensor.Sample {
	quiet := k20c.Sensor
	quiet.NoiseSigmaW = 0
	quiet.DriftAmpW = 0
	return sensor.Record(segs, quiet, seed)
}

// k20c is the paper's board, whose description the analysis is calibrated on.
var k20c = kepler.K20cDevice()

func plateau(watts, dur float64) []power.Segment {
	return []power.Segment{
		{Start: 0, Duration: 3, Watts: 25},
		{Start: 3, Duration: dur, Watts: watts},
		{Start: 3 + dur, Duration: 1.6, Watts: 29},
		{Start: 4.6 + dur, Duration: 3, Watts: 25},
	}
}

func TestAnalyzeRecoversRuntimeEnergyPower(t *testing.T) {
	const w, dur = 110.0, 20.0
	samples := cleanSensor(plateau(w, dur), 5)
	m, err := Analyze(samples, k20c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.ActiveTime-dur)/dur > 0.08 {
		t.Errorf("active time %.2f s, want ~%.1f", m.ActiveTime, dur)
	}
	wantE := w * dur
	if math.Abs(m.Energy-wantE)/wantE > 0.10 {
		t.Errorf("energy %.1f J, want ~%.1f", m.Energy, wantE)
	}
	if math.Abs(m.AvgPower-w)/w > 0.06 {
		t.Errorf("avg power %.1f W, want ~%.1f", m.AvgPower, w)
	}
}

func TestAnalyzeIdleDetection(t *testing.T) {
	samples := cleanSensor(plateau(90, 15), 2)
	m, err := Analyze(samples, k20c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.IdleW-25) > 2 {
		t.Errorf("idle = %.1f W, want ~25", m.IdleW)
	}
	if m.ThresholdW <= m.IdleW || m.ThresholdW >= m.PeakW {
		t.Errorf("threshold %.1f outside (idle %.1f, peak %.1f)", m.ThresholdW, m.IdleW, m.PeakW)
	}
}

func TestThresholdLowerForLowerPlateau(t *testing.T) {
	high, err := Analyze(cleanSensor(plateau(120, 15), 1), k20c)
	if err != nil {
		t.Fatal(err)
	}
	low, err := Analyze(cleanSensor(plateau(50, 15), 1), k20c)
	if err != nil {
		t.Fatal(err)
	}
	if low.ThresholdW >= high.ThresholdW {
		t.Errorf("low-plateau threshold %.1f >= high-plateau %.1f; paper: lower frequency settings need lower thresholds",
			low.ThresholdW, high.ThresholdW)
	}
}

func TestInsufficientSamplesShortRun(t *testing.T) {
	// A 0.4 s kernel yields only ~4 active samples even at 10 Hz.
	samples := cleanSensor(plateau(110, 0.4), 3)
	_, err := Analyze(samples, k20c)
	if err == nil {
		t.Fatal("expected insufficient-samples error")
	}
	if !errors.Is(err, ErrInsufficientSamples) {
		t.Errorf("error = %v, want ErrInsufficientSamples", err)
	}
}

func TestInsufficientAt1HzLowPower(t *testing.T) {
	// A 38 W plateau stays at 1 Hz; 8 s of it -> ~8 samples < 12.
	samples := cleanSensor(plateau(38, 8), 3)
	_, err := Analyze(samples, k20c)
	if err == nil || (!errors.Is(err, ErrInsufficientSamples) && !errors.Is(err, ErrNoActivity)) {
		t.Errorf("want insufficiency for short low-power run, got %v", err)
	}
	// The 1 Hz idle rate is the cause: a sensor that never leaves its
	// 10 Hz active rate (SwitchW = 0) measures the same run.
	always10 := k20c.Sensor
	always10.NoiseSigmaW, always10.DriftAmpW, always10.SwitchW = 0, 0, 0
	m10, err := Analyze(sensor.Record(plateau(38, 8), always10, 3), k20c)
	if err != nil {
		t.Fatalf("8 s at 38 W from an always-10 Hz sensor should be measurable: %v", err)
	}
	t.Logf("always-10 Hz sensor: %d active samples, active time %.2f s", m10.ActiveSamples, m10.ActiveTime)
	// But a long one is measurable at 1 Hz.
	samples = cleanSensor(plateau(38, 60), 3)
	m, err := Analyze(samples, k20c)
	if err != nil {
		t.Fatalf("long low-power run should be measurable: %v", err)
	}
	if math.Abs(m.ActiveTime-60)/60 > 0.08 {
		t.Errorf("active time %.1f, want ~60", m.ActiveTime)
	}
}

func TestNoActivityFlatIdle(t *testing.T) {
	segs := []power.Segment{{Start: 0, Duration: 30, Watts: 25}}
	samples := cleanSensor(segs, 4)
	_, err := Analyze(samples, k20c)
	if err == nil {
		t.Error("flat idle log should not contain activity")
	}
}

func TestCompensateRecoversStep(t *testing.T) {
	// Build an EMA-filtered step by hand and check Compensate sharpens it.
	tau := sensor.Tau
	var samples []sensor.Sample
	y := 25.0
	for i := 0; i < 100; i++ {
		tm := float64(i) * 0.1
		x := 25.0
		if tm >= 2 {
			x = 100
		}
		y += (x - y) * (1 - math.Exp(-0.1/tau))
		samples = append(samples, sensor.Sample{T: tm, W: y})
	}
	comp := Compensate(samples)
	// Shortly after the step, the compensated value must be much closer to
	// 100 than the raw EMA value.
	idx := 25 // t = 2.5 s
	if comp[idx].W < 90 {
		t.Errorf("compensated value %.1f at t=2.5s, want ~100 (raw %.1f)", comp[idx].W, samples[idx].W)
	}
	if samples[idx].W > comp[idx].W {
		t.Error("compensation should not reduce a rising edge")
	}
}

func TestAnalyzeTooFewSamplesInput(t *testing.T) {
	_, err := Analyze([]sensor.Sample{{T: 0, W: 25}}, k20c)
	if !errors.Is(err, ErrInsufficientSamples) {
		t.Errorf("want ErrInsufficientSamples, got %v", err)
	}
}

func TestMeasurementString(t *testing.T) {
	m := Measurement{ActiveTime: 1.5, Energy: 100, AvgPower: 66.7, IdleW: 25, ThresholdW: 40, ActiveSamples: 15}
	if s := m.String(); len(s) == 0 {
		t.Error("empty String()")
	}
}

func TestNthSmallest(t *testing.T) {
	s := []sensor.Sample{{W: 5}, {W: 1}, {W: 3}}
	var a Analyzer
	if a.nthSmallest(s, 0) != 1 || a.nthSmallest(s, 1) != 3 || a.nthSmallest(s, 9) != 5 {
		t.Error("nthSmallest wrong")
	}
}

func TestAnalyzeRobustToNonMonotonicTimes(t *testing.T) {
	// A duplicated timestamp (dt = 0) must not divide by zero.
	samples := cleanSensor(plateau(90, 15), 2)
	samples = append(samples[:10], append([]sensor.Sample{samples[9]}, samples[10:]...)...)
	if _, err := Analyze(samples, k20c); err != nil {
		t.Fatalf("duplicate timestamp broke analysis: %v", err)
	}
}

func TestAnalyzeEmptyLog(t *testing.T) {
	if _, err := Analyze(nil, k20c); err == nil {
		t.Fatal("empty log accepted")
	}
}

func TestAnalyze1HzNeedsMoreSamples(t *testing.T) {
	// 20 s of 38 W plateau at 1 Hz: 20 samples passes minSamples but not
	// minSamples1Hz.
	samples := cleanSensor(plateau(38, 20), 3)
	_, err := Analyze(samples, k20c)
	if err == nil {
		t.Fatal("short 1 Hz run accepted; want the paper's stricter bar")
	}
	// 40 s is enough.
	samples = cleanSensor(plateau(38, 40), 3)
	if _, err := Analyze(samples, k20c); err != nil {
		t.Fatalf("long 1 Hz run rejected: %v", err)
	}
}

func TestPropertyAnalyzeScalesLinearly(t *testing.T) {
	// Doubling the plateau power should roughly double energy and power but
	// keep the active time.
	a, err := Analyze(cleanSensor(plateau(60, 20), 5), k20c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(cleanSensor(plateau(120, 20), 5), k20c)
	if err != nil {
		t.Fatal(err)
	}
	if r := b.Energy / a.Energy; r < 1.7 || r > 2.3 {
		t.Errorf("energy ratio %f, want ~2", r)
	}
	if r := b.ActiveTime / a.ActiveTime; r < 0.9 || r > 1.1 {
		t.Errorf("time ratio %f, want ~1", r)
	}
}

// TestPropertyPulseNoSliverSample records an idle → pulse → idle square wave
// with every device's sensor profile and analyzes it, over pulse widths,
// pulse powers and 40 start phases. The phases sit on a 0.025 s grid, where
// the summed sampling times land within a few ulps of the log's end often
// enough to matter. The log must hold no sampling interval shorter than
// sensor.MinDT, and the analysis must stay near the pulse: a sliver interval
// compensated as a derivative reads as a huge power spike that stretches the
// active region to the end of the log.
func TestPropertyPulseNoSliverSample(t *testing.T) {
	for _, dev := range kepler.Devices() {
		idle := dev.Power.IdleW
		for _, width := range []float64{2.8, 6, 20} {
			for _, rise := range []float64{1.5, 4} {
				watts := idle + rise*(dev.Sensor.SwitchW-idle+1)
				for k := 0; k < 40; k++ {
					lead := 3 + float64(k)/40
					segs := []power.Segment{
						{Start: 0, Duration: lead, Watts: idle},
						{Start: lead, Duration: width, Watts: watts},
						{Start: lead + width, Duration: 3, Watts: idle},
					}
					samples := sensor.Record(segs, dev.Sensor, uint64(k))
					name := fmt.Sprintf("%s width=%g W=%.2f phase=%d", dev.Name, width, watts, k)
					for i := 1; i < len(samples); i++ {
						if dt := samples[i].T - samples[i-1].T; dt < sensor.MinDT {
							t.Fatalf("%s: sample %d follows the previous by %g s", name, i, dt)
						}
					}
					m, err := Analyze(samples, dev)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					// The bounds leave room for the analyzer's known edge
					// bias (up to a sampling interval per edge at 1 Hz).
					if math.Abs(m.ActiveTime-width) > 1 {
						t.Errorf("%s: active time %.3f s, want %g ± 1", name, m.ActiveTime, width)
					}
					if r := m.AvgPower / watts; r < 0.75 || r > 1.25 {
						t.Errorf("%s: avg power %.3f W, want %.2f ± 25%%", name, m.AvgPower, watts)
					}
				}
			}
		}
	}
}

func TestSingleSensorGapDoesNotReclassifyAs1Hz(t *testing.T) {
	// Regression for the mean-vs-median 1 Hz classification bug: a 12 s
	// 10 Hz run with one long mid-run sensor dropout. The MEAN inter-sample
	// interval of the active region exceeds 0.5 s (span ~12 s over ~20
	// samples), which the old code treated as "sampled at 1 Hz throughout"
	// and excluded (~20 < minSamples1Hz). The MEDIAN interval is still the
	// 10 Hz 0.1 s, so the run must remain measurable.
	samples := cleanSensor(plateau(110, 12), 7)
	kept := samples[:0:0]
	for _, s := range samples {
		if s.T > 4.55 && s.T < 13.95 {
			continue // sensor dropout
		}
		kept = append(kept, s)
	}
	m, err := Analyze(kept, k20c)
	if err != nil {
		t.Fatalf("single-gap 10 Hz run excluded: %v", err)
	}
	// Confirm the log actually exercises the regression: fewer active
	// samples than the 1 Hz bar, spread over a span whose mean interval is
	// above the 0.5 s classification cut.
	if m.ActiveSamples >= minSamples1Hz {
		t.Fatalf("scenario too dense: %d active samples >= minSamples1Hz %d", m.ActiveSamples, minSamples1Hz)
	}
	if mean := m.ActiveTime / float64(m.ActiveSamples-1); mean <= 0.5 {
		t.Fatalf("scenario too short: mean interval %.3f s <= 0.5 s would not have triggered the old bug", mean)
	}
	if math.Abs(m.ActiveTime-12)/12 > 0.15 {
		t.Errorf("active time %.2f s, want ~12", m.ActiveTime)
	}
}

func TestAll1HzRunStillClassifiedAs1Hz(t *testing.T) {
	// The median fix must not weaken the genuine 1 Hz exclusion: a short
	// low-power plateau sampled at 1 Hz throughout stays excluded.
	samples := cleanSensor(plateau(38, 20), 3)
	if _, err := Analyze(samples, k20c); err == nil {
		t.Fatal("20 s 1 Hz run accepted; the stricter minSamples1Hz bar must still apply")
	}
}

func TestCompensateNonMonotonicTimestampsStayRaw(t *testing.T) {
	// Samples with dt <= 0 (duplicated or backwards timestamps) carry no
	// derivative information; Compensate pins them at their raw value.
	samples := []sensor.Sample{
		{T: 0, W: 25}, {T: 1, W: 60}, {T: 1, W: 90}, {T: 0.5, W: 95}, {T: 2, W: 100},
	}
	comp := Compensate(samples)
	if comp[2].W != samples[2].W {
		t.Errorf("duplicate-timestamp sample compensated: %.1f, want raw %.1f", comp[2].W, samples[2].W)
	}
	if comp[3].W != samples[3].W {
		t.Errorf("backwards-timestamp sample compensated: %.1f, want raw %.1f", comp[3].W, samples[3].W)
	}
	// Surrounding monotonic samples are still lag-compensated (rising
	// edges overshoot the raw reading) and finite.
	if comp[1].W <= samples[1].W {
		t.Errorf("rising edge not sharpened: %.1f <= raw %.1f", comp[1].W, samples[1].W)
	}
	for i, s := range comp {
		if math.IsNaN(s.W) || math.IsInf(s.W, 0) {
			t.Errorf("comp[%d].W = %v", i, s.W)
		}
	}
}

func TestCompensateSliverIntervalStaysRaw(t *testing.T) {
	// A sample a rounding sliver after its predecessor carries no
	// derivative either: dividing by ~1e-15 s would read ~1e13 W.
	samples := []sensor.Sample{{T: 0, W: 25}, {T: 0.1, W: 60}, {T: 0.1 + 1e-15, W: 61}}
	comp := Compensate(samples)
	if comp[2].W != samples[2].W {
		t.Errorf("sliver-interval sample compensated: %g, want raw %g", comp[2].W, samples[2].W)
	}
}

// sortedMedianGap is the sort-based reference the counting 1 Hz test
// replaced: the median inter-sample gap of the gaps sorted by
// sort.Float64s, or 0 for fewer than two samples.
func sortedMedianGap(samples []sensor.Sample) float64 {
	if len(samples) < 2 {
		return 0
	}
	gaps := make([]float64, 0, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		gaps = append(gaps, samples[i].T-samples[i-1].T)
	}
	sort.Float64s(gaps)
	n := len(gaps)
	if n%2 == 1 {
		return gaps[n/2]
	}
	return (gaps[n/2-1] + gaps[n/2]) / 2
}

// checkSlowlySampled fails t when slowlySampled disagrees with the sorted
// median's comparison against half a second.
func checkSlowlySampled(t *testing.T, what string, s []sensor.Sample) {
	t.Helper()
	if got, want := slowlySampled(s), sortedMedianGap(s) > 0.5; got != want {
		t.Errorf("%s: slowlySampled = %v, sorted median %v > 0.5 is %v", what, got, sortedMedianGap(s), want)
	}
}

func TestMedianInterval(t *testing.T) {
	s := []sensor.Sample{{T: 0}, {T: 0.1}, {T: 0.2}, {T: 6.2}, {T: 6.3}}
	slow := []sensor.Sample{{T: 0}, {T: 1}, {T: 2}, {T: 2.1}, {T: 3.1}}
	for _, c := range []struct {
		name    string
		samples []sensor.Sample
		median  float64
	}{
		{"even", s, 0.1},         // gaps .1 .1 6 .1
		{"odd", s[:4], 0.1},      // gaps .1 .1 6
		{"one sample", s[:1], 0}, // no gap
		{"empty", nil, 0},
		{"even 1 Hz", slow, 1},    // gaps 1 1 .1 1
		{"odd 1 Hz", slow[:4], 1}, // gaps 1 1 .1
		{"even straddling", []sensor.Sample{{T: 0}, {T: 0.1}, {T: 1.1}, {T: 1.2}, {T: 2.2}}, 0.55}, // gaps .1 1 .1 1
	} {
		if got := sortedMedianGap(c.samples); math.Abs(got-c.median) > 1e-12 {
			t.Errorf("%s: sorted median = %v, want %v", c.name, got, c.median)
		}
		checkSlowlySampled(t, c.name, c.samples)
	}
}

// TestSlowlySampledMatchesSortedMedian: counting the gaps at or below half
// a second decides the 1 Hz test exactly as comparing the sorted median
// does — for odd and even counts, gaps at 0.5 s and at its float
// neighbours, duplicate gaps, and NaN and infinite gaps.
func TestSlowlySampledMatchesSortedMedian(t *testing.T) {
	below, above := math.Nextafter(0.5, 0), math.Nextafter(0.5, 1)
	pool := []float64{0.1, 0.1, 0.5, 0.5, below, above, math.Nextafter(above, 1), 1, 1, 6, 0.4, 0.6,
		0, -0.1, math.Inf(1), math.NaN()}
	// anchored returns a log whose odd gaps are exactly gs (the even ones
	// step back to 0, below half a second).
	anchored := func(gs ...float64) []sensor.Sample {
		s := []sensor.Sample{{T: 0}}
		for _, g := range gs {
			s = append(s, sensor.Sample{T: g}, sensor.Sample{T: 0})
		}
		return s
	}
	// Even gap counts whose middle pair straddles 0.5 s: the mean decides.
	for _, c := range []struct {
		name string
		lo   float64
		hi   float64
		want bool
	}{
		{"0.5 and its successor", 0.5, above, false}, // (1+2⁻⁵³)/2 rounds to 0.5
		{"predecessor and successor", below, above, false},
		{"0.5 and two steps up", 0.5, math.Nextafter(above, 1), true},
		{"0.4 and 0.6", 0.4, 0.6, false},
		{"0.4 and 0.7", 0.4, 0.7, true},
	} {
		s := []sensor.Sample{{T: -c.lo}, {T: 0}, {T: c.hi}} // gaps exactly lo, hi
		checkSlowlySampled(t, c.name, s)
		if got := slowlySampled(s); got != c.want {
			t.Errorf("%s: slowlySampled = %v, want %v", c.name, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(12)
		gs := make([]float64, n)
		for i := range gs {
			gs[i] = pool[rng.Intn(len(pool))]
		}
		// A cumulative log (gaps rounded where t grows) and an anchored one
		// (gaps exact, half of them negative).
		s := []sensor.Sample{{T: 0}}
		for _, g := range gs {
			s = append(s, sensor.Sample{T: s[len(s)-1].T + g})
		}
		checkSlowlySampled(t, fmt.Sprintf("cumulative %v", gs), s)
		a := anchored(gs...)
		checkSlowlySampled(t, fmt.Sprintf("anchored %v", gs), a)
		checkSlowlySampled(t, fmt.Sprintf("anchored %v, last gap dropped", gs), a[:len(a)-1])
	}
}

func TestPercentileEmptyLog(t *testing.T) {
	var a Analyzer
	if got := a.percentile(nil, 0.999); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := a.percentile([]sensor.Sample{}, 0); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

// sortedPowers is the sort-based reference for orderStat: the sample powers
// in sort.Float64s order, with ties kept in log order (a stable sort), which
// fixes which of two equal-comparing bit patterns (±0, NaN payloads) sits at
// each rank.
func sortedPowers(samples []sensor.Sample) []float64 {
	ws := make([]float64, len(samples))
	for i, s := range samples {
		ws[i] = s.W
	}
	sort.SliceStable(ws, func(i, j int) bool {
		return ws[i] < ws[j] || (math.IsNaN(ws[i]) && !math.IsNaN(ws[j]))
	})
	return ws
}

// randomPowerLog draws n powers from a small pool rich in the cases that
// break naive selection: duplicates, +0 and -0, NaNs with distinct payloads
// and infinities, mixed with continuous values.
func randomPowerLog(rng *rand.Rand, n int) []sensor.Sample {
	pool := []float64{0, math.Copysign(0, -1), 25, 25, 90.5, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002)}
	s := make([]sensor.Sample, n)
	for i := range s {
		s[i].T = float64(i) / 10
		if rng.Intn(2) == 0 {
			s[i].W = pool[rng.Intn(len(pool))]
		} else {
			s[i].W = rng.Float64() * 200
		}
	}
	return s
}

// TestOrderStatMatchesSort: the bounded selection returns the bits the
// stable sort reference holds at every rank, and the value sort.Float64s
// itself holds there, on random logs with NaN, duplicates and ±0. One
// Analyzer serves every call, so its heap buffer is reused at every size.
func TestOrderStatMatchesSort(t *testing.T) {
	var a Analyzer
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		if trial%50 == 0 {
			n = 2000 + rng.Intn(3000)
		}
		samples := randomPowerLog(rng, n)
		ref := sortedPowers(samples)
		unstable := append([]float64(nil), ref...)
		sort.Float64s(unstable)
		ranks := []int{0, 1, n / 2, n - 2, n - 1, int(0.999 * float64(n-1))}
		if n <= 40 {
			ranks = ranks[:0]
			for r := 0; r < n; r++ {
				ranks = append(ranks, r)
			}
		}
		for _, r := range ranks {
			if r < 0 || r >= n {
				continue
			}
			got := a.orderStat(samples, r)
			if math.Float64bits(got) != math.Float64bits(ref[r]) {
				t.Fatalf("trial %d n=%d rank %d: got %v (%#x), stable sort has %v (%#x)",
					trial, n, r, got, math.Float64bits(got), ref[r], math.Float64bits(ref[r]))
			}
			if u := unstable[r]; !(got == u || math.IsNaN(got) && math.IsNaN(u)) {
				t.Fatalf("trial %d n=%d rank %d: got %v, sort.Float64s has %v", trial, n, r, got, u)
			}
		}
		idxP := int(0.999 * float64(n-1))
		if got := a.percentile(samples, 0.999); math.Float64bits(got) != math.Float64bits(ref[idxP]) {
			t.Fatalf("trial %d n=%d: percentile(0.999) = %v, reference %v", trial, n, got, ref[idxP])
		}
		for _, k := range []int{0, 1, n + 3} {
			want := ref[min(k, n-1)]
			if got := a.nthSmallest(samples, k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d n=%d: nthSmallest(%d) = %v, reference %v", trial, n, k, got, want)
			}
		}
	}
}
