package sensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// referenceRecord is AppendRecord as it was before the running average's
// step factor was memoized: math.Exp on every step. The memoized recorder
// must reproduce it bit for bit.
func referenceRecord(dst []Sample, segs []power.Segment, model kepler.SensorModel, seed uint64) []Sample {
	if len(segs) == 0 {
		return dst
	}
	end := segs[len(segs)-1].End()
	rng := xrand.New(seed ^ 0x2545f4914f6cdd1d)
	driftPhase := rng.Float64() * 2 * math.Pi

	samples := dst
	reported := segs[0].Watts
	t := 0.0
	segIdx := 0
	for end-t >= MinDT {
		dt := idleDT
		if reported >= model.SwitchW {
			dt = activeDT
		}
		next := t + dt
		if next > end {
			next = end
		}
		avg, newIdx := avgPower(segs, segIdx, t, next)
		segIdx = newIdx
		alpha := 1 - math.Exp(-(next-t)/Tau)
		reported += (avg - reported) * alpha
		t = next

		w := reported
		w += rng.Norm() * model.NoiseSigmaW
		w += model.DriftAmpW * math.Sin(2*math.Pi*t/300+driftPhase)
		if w < 0 {
			w = 0
		}
		w = math.Round(w*1000) / 1000 // milliwatt quantization
		samples = append(samples, Sample{T: t, W: w})
	}
	return samples
}

// sameSamples reports the first sample at which two logs differ in any bit,
// or -1 when they are identical.
func sameSamples(a, b []Sample) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) ||
			math.Float64bits(a[i].T) != math.Float64bits(b[i].T) ||
			math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return i
		}
	}
	return -1
}

// switchingTimeline draws a contiguous timeline whose segments alternate
// between powers below and above the model's switch level, so the recorder
// moves between its 1 Hz and 10 Hz intervals at random points.
func switchingTimeline(rng *rand.Rand, model kepler.SensorModel) []power.Segment {
	n := 2 + rng.Intn(12)
	segs := make([]power.Segment, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		w := model.SwitchW * (0.3 + 0.65*rng.Float64())
		if i%2 == 1 {
			w = model.SwitchW * (1.05 + 2*rng.Float64())
		}
		d := 0.05 + 6*rng.Float64()
		segs = append(segs, power.Segment{Start: t, Duration: d, Watts: w})
		t += d
	}
	return segs
}

// withSliverEnd moves the timeline's end to frac·MinDT past the time of
// one of its reference samples, so the recorder's last step is a sliver
// around MinDT (or no step at all below it).
func withSliverEnd(rng *rand.Rand, segs []power.Segment, model kepler.SensorModel, frac float64) []power.Segment {
	ref := referenceRecord(nil, segs, model, 1)
	if len(ref) < 2 {
		return segs
	}
	at := ref[len(ref)/2+rng.Intn(len(ref)/2)].T
	out := append([]power.Segment(nil), segs...)
	for len(out) > 1 && out[len(out)-1].Start >= at {
		out = out[:len(out)-1]
	}
	last := &out[len(out)-1]
	last.Duration = at + frac*MinDT - last.Start
	return out
}

// TestMemoizedRecordMatchesReference: the memoized step factor changes no
// sample in any bit, on timelines that switch sampling rates, on timelines
// ending in slivers of MinDT size, and under every device's sensor model.
func TestMemoizedRecordMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range kepler.Devices() {
		model := d.Sensor
		for i := 0; i < 40; i++ {
			segs := switchingTimeline(rng, model)
			if i%2 == 1 {
				segs = withSliverEnd(rng, segs, model, []float64{0.5, 1, 1.5, 3}[rng.Intn(4)])
			}
			seed := rng.Uint64()
			got := AppendRecord(nil, segs, model, seed)
			want := referenceRecord(nil, segs, model, seed)
			if i := sameSamples(got, want); i >= 0 {
				t.Fatalf("%s timeline %d: memoized log differs from the reference at sample %d (%d vs %d samples)",
					d.Name, i, i, len(got), len(want))
			}
		}
	}
}

// TestEMAFactorsExact: the table returns, for every step, the bits the
// direct expression gives — across ulp-neighbour intervals that differ only
// in their lowest bits, repeats, and more distinct intervals than the table
// holds. (A wrong factor a few ulps off rarely survives the recorder's
// milliwatt quantization, so the sample comparisons alone would miss it.)
func TestEMAFactorsExact(t *testing.T) {
	var pool []float64
	for _, base := range []float64{0.1, 1, 0.3, MinDT, 2.5e-5} {
		for _, d := range []int{0, 1, 2, 255, 256, -1} {
			pool = append(pool, math.Float64frombits(uint64(int64(math.Float64bits(base))+int64(d))))
		}
	}
	rng := rand.New(rand.NewSource(3))
	var ema emaFactors
	for i := 0; i < 20000; i++ {
		dt := pool[rng.Intn(len(pool))]
		if i%3 == 0 {
			dt = pool[rng.Intn(4)] // a few hot intervals, as in a real log
		}
		if got, want := ema.of(dt), 1-math.Exp(-dt/Tau); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: factor for Δt %v (bits %#x) = %v, want %v", i, dt, math.Float64bits(dt), got, want)
		}
	}
}

// replayedTimelines captures one small program on the K20c and returns its
// power timeline replayed at each canonical configuration: the timelines
// the measurement pipeline feeds the recorder.
func replayedTimelines(tb testing.TB) [][]power.Segment {
	g := sim.NewGPU(kepler.K20cDevice())
	g.SetTimeScale(100)
	l := g.Launch("k1", 256, 256, func(c *sim.Ctx) { c.FP32Ops(400) })
	g.Repeat(l, 4000)
	g.HostPause(0.8)
	l = g.Launch("k2", 64, 128, func(c *sim.Ctx) { c.IntOps(50) })
	g.Repeat(l, 900)
	g.HostPause(2.5)
	g.Launch("k3", 32, 64, func(c *sim.Ctx) { c.IntOps(10) })
	tr := g.Trace()
	var out [][]power.Segment
	for _, clk := range kepler.K20cDevice().Configurations() {
		d, err := tr.Replay(clk)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, power.Timeline(d))
	}
	return out
}

// encodeSegments packs a timeline as the fuzz input: three little-endian
// float64s (start, duration, watts) per segment.
func encodeSegments(segs []power.Segment) []byte {
	b := make([]byte, 0, 24*len(segs))
	for _, s := range segs {
		for _, v := range []float64{s.Start, s.Duration, s.Watts} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// decodeSegments reverses encodeSegments. It refuses timelines that take
// the recorder long to sample (non-finite values, more than 256 segments,
// an end beyond two minutes), which say nothing more about the step factor.
func decodeSegments(b []byte) ([]power.Segment, bool) {
	if len(b) > 256*24 {
		return nil, false
	}
	segs := make([]power.Segment, 0, len(b)/24)
	for ; len(b) >= 24; b = b[24:] {
		var v [3]float64
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
				return nil, false
			}
		}
		segs = append(segs, power.Segment{Start: v[0], Duration: v[1], Watts: v[2]})
	}
	if len(segs) > 0 && !(segs[len(segs)-1].End() <= 120) {
		return nil, false
	}
	return segs, true
}

// FuzzAppendRecord compares the memoized recorder with the reference on
// mutated timelines, seeded with timelines of a replayed program.
func FuzzAppendRecord(f *testing.F) {
	for i, segs := range replayedTimelines(f) {
		f.Add(encodeSegments(segs), uint64(i), uint8(i))
	}
	devices := kepler.Devices()
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, device uint8) {
		segs, ok := decodeSegments(data)
		if !ok {
			t.Skip()
		}
		model := devices[int(device)%len(devices)].Sensor
		got := AppendRecord(nil, segs, model, seed)
		want := referenceRecord(nil, segs, model, seed)
		if i := sameSamples(got, want); i >= 0 {
			t.Fatalf("memoized log differs from the reference at sample %d (%d vs %d samples)", i, len(got), len(want))
		}
	})
}
