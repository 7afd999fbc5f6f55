package sensor

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/kepler"
	"repro/internal/power"
)

// k20c is the paper's sensor: the K20c device description's model.
var k20c = kepler.K20cDevice().Sensor

// stepTimeline returns idle -> plateau -> idle.
func stepTimeline(plateauW, plateauDur float64) []power.Segment {
	return []power.Segment{
		{Start: 0, Duration: 3, Watts: 25},
		{Start: 3, Duration: plateauDur, Watts: plateauW},
		{Start: 3 + plateauDur, Duration: 3, Watts: 25},
	}
}

func TestHighPowerSwitchesTo10Hz(t *testing.T) {
	segs := stepTimeline(100, 10)
	samples := Record(segs, k20c, 1)
	// 10 s plateau at 10 Hz plus ~6 s idle at 1 Hz: expect roughly 100+ samples.
	if len(samples) < 80 {
		t.Errorf("samples = %d, want ~100+", len(samples))
	}
	// Verify interval shrinks during the plateau.
	shortIntervals := 0
	for i := 1; i < len(samples); i++ {
		if samples[i].T-samples[i-1].T < 0.2 {
			shortIntervals++
		}
	}
	if shortIntervals < 50 {
		t.Errorf("10 Hz intervals = %d, want many", shortIntervals)
	}
}

func TestLowPowerStaysAt1Hz(t *testing.T) {
	segs := stepTimeline(38, 10) // below the 44 W switch level
	samples := Record(segs, k20c, 1)
	for i := 1; i < len(samples); i++ {
		if samples[i].T-samples[i-1].T < 0.5 {
			t.Fatalf("sensor switched to 10 Hz on a 38 W plateau (interval %f)",
				samples[i].T-samples[i-1].T)
		}
	}
	if len(samples) > 20 {
		t.Errorf("1 Hz log has %d samples for a 16 s timeline", len(samples))
	}
}

func TestEMATracksPlateau(t *testing.T) {
	segs := stepTimeline(100, 20)
	quiet := k20c
	quiet.NoiseSigmaW = 0
	quiet.DriftAmpW = 0
	samples := Record(segs, quiet, 7)
	// Late in the plateau the reported value must be close to 100.
	var late float64
	for _, s := range samples {
		if s.T > 15 && s.T < 22 {
			late = s.W
		}
	}
	if math.Abs(late-100) > 1 {
		t.Errorf("late plateau reading = %f, want ~100", late)
	}
	// Right after the step the reading must lag (EMA).
	var early float64
	for _, s := range samples {
		if s.T > 3.05 && s.T < 3.5 {
			early = s.W
			break
		}
	}
	if early > 95 {
		t.Errorf("reading right after step = %f; EMA should lag", early)
	}
}

func TestNoiseDeterministicPerSeed(t *testing.T) {
	segs := stepTimeline(80, 5)
	a := Record(segs, k20c, 42)
	b := Record(segs, k20c, 42)
	if len(a) != len(b) {
		t.Fatal("non-deterministic sample count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic samples for fixed seed")
		}
	}
	c := Record(segs, k20c, 43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestQuantizationMilliwatts(t *testing.T) {
	segs := stepTimeline(80, 5)
	for _, s := range Record(segs, k20c, 3) {
		scaled := s.W * 1000
		if math.Abs(scaled-math.Round(scaled)) > 1e-6 {
			t.Fatalf("sample %f not quantized to mW", s.W)
		}
	}
}

func TestAvgPowerIntegration(t *testing.T) {
	segs := []power.Segment{
		{Start: 0, Duration: 1, Watts: 10},
		{Start: 1, Duration: 1, Watts: 30},
	}
	avg, _ := avgPower(segs, 0, 0.5, 1.5)
	if math.Abs(avg-20) > 1e-9 {
		t.Errorf("avgPower = %f, want 20", avg)
	}
	avg, _ = avgPower(segs, 0, 0, 1)
	if math.Abs(avg-10) > 1e-9 {
		t.Errorf("avgPower = %f, want 10", avg)
	}
}

func TestPropertySamplesNonNegativeAndOrdered(t *testing.T) {
	f := func(seed uint64, w8 uint8) bool {
		w := float64(w8%120) + 20
		segs := stepTimeline(w, 6)
		samples := Record(segs, k20c, seed)
		prev := -1.0
		for _, s := range samples {
			if s.W < 0 || s.T <= prev {
				return false
			}
			prev = s.T
		}
		return len(samples) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTimeline(t *testing.T) {
	if s := Record(nil, k20c, 1); s != nil {
		t.Error("nil timeline should produce no samples")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := []Sample{{T: 0, W: 25.125}, {T: 0.1, W: 80.5}, {T: 0.2, W: 81}}
	var buf strings.Builder
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost samples: %d != %d", len(out), len(in))
	}
	for i := range in {
		if math.Abs(out[i].T-in[i].T) > 1e-3 || math.Abs(out[i].W-in[i].W) > 1e-3 {
			t.Errorf("sample %d: %v != %v", i, out[i], in[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"1.0",         // missing field
		"x,25",        // bad time
		"1.0,y",       // bad watts
		"1.0,-5",      // negative power
		"1.0,2.0,3.0", // too many fields
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("line %q accepted", c)
		}
	}
	// Comments and blanks are fine.
	got, err := ReadCSV(strings.NewReader("# header\n\n1.0,25\n"))
	if err != nil || len(got) != 1 {
		t.Errorf("comment/blank handling wrong: %v, %d", err, len(got))
	}
}
