package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hashing"
	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sim"
)

func TestRunnerMediansAndReps(t *testing.T) {
	r := NewRunner()
	p := computeBoundToy(4000)
	res, err := r.Measure(context.Background(), p, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reps) != 3 {
		t.Fatalf("reps = %d, want 3", len(res.Reps))
	}
	if res.ActiveTime <= 0 || res.Energy <= 0 || res.AvgPower <= 0 {
		t.Fatalf("bad medians: %+v", res)
	}
	// The median must lie within the repetition range.
	lo, hi := res.Reps[0].ActiveTime, res.Reps[0].ActiveTime
	for _, m := range res.Reps {
		if m.ActiveTime < lo {
			lo = m.ActiveTime
		}
		if m.ActiveTime > hi {
			hi = m.ActiveTime
		}
	}
	if res.ActiveTime < lo || res.ActiveTime > hi {
		t.Errorf("median %f outside [%f, %f]", res.ActiveTime, lo, hi)
	}
	if res.TimeSpread() < 0 || res.TimeSpread() > 0.2 {
		t.Errorf("time spread %f implausible", res.TimeSpread())
	}
}

func TestRunnerCaching(t *testing.T) {
	calls := 0
	p := &toyProgram{
		name:  "toy-cache",
		suite: SuiteSDK,
		run: func(dev *sim.GPU) error {
			calls++
			dev.SetTimeScale(100)
			l := dev.Launch("k", 512, 256, func(c *sim.Ctx) { c.FP32Ops(500) })
			dev.Repeat(l, 4000)
			return nil
		},
	}
	r := NewRunner()
	a, err := r.Measure(context.Background(), p, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Measure(context.Background(), p, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("program ran %d times, want 1 (cached)", calls)
	}
	if a != b {
		t.Error("cache returned a different result pointer")
	}
	// Different config: the launch-trace cache replays the captured trace
	// instead of running the (clock-insensitive) program again.
	if _, err := r.Measure(context.Background(), p, "default", kepler.F614); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("program ran %d times after second config, want 1 (replayed)", calls)
	}

}

func TestRunnerPropagatesValidationError(t *testing.T) {
	p := &toyProgram{
		name:  "toy-broken",
		suite: SuiteSDK,
		run: func(dev *sim.GPU) error {
			return Validatef("toy-broken", "deliberate failure")
		},
	}
	r := NewRunner()
	if _, err := r.Measure(context.Background(), p, "default", kepler.Default); err == nil {
		t.Fatal("validation error swallowed")
	}
}

func TestRunnerInsufficientSamples(t *testing.T) {
	// A microscopic kernel yields almost no samples.
	p := &toyProgram{
		name:  "toy-tiny",
		suite: SuiteSDK,
		run: func(dev *sim.GPU) error {
			dev.Launch("k", 16, 256, func(c *sim.Ctx) { c.FP32Ops(10) })
			return nil
		},
	}
	r := NewRunner()
	_, err := r.Measure(context.Background(), p, "default", kepler.Default)
	if err == nil {
		t.Fatal("expected insufficiency")
	}
	if !IsInsufficient(err) {
		t.Fatalf("error %v not classified as insufficient", err)
	}
	if !errors.Is(err, k20power.ErrInsufficientSamples) && !errors.Is(err, k20power.ErrNoActivity) {
		t.Fatalf("unexpected error type: %v", err)
	}
}

func TestMeasureAllSkipsInsufficient(t *testing.T) {
	progs := []Program{
		computeBoundToy(4000),
		&toyProgram{
			name:  "toy-tiny2",
			suite: SuiteSDK,
			run: func(dev *sim.GPU) error {
				dev.Launch("k", 16, 256, func(c *sim.Ctx) { c.FP32Ops(10) })
				return nil
			},
		},
	}
	r := NewRunner()
	if err := r.MeasureAll(context.Background(), progs, []kepler.Clocks{kepler.Default}, false); err != nil {
		t.Fatalf("MeasureAll should skip insufficiency: %v", err)
	}
}

// MeasureAll must report EVERY hard failure, not just the first one drained.
func TestMeasureAllAggregatesFailures(t *testing.T) {
	broken := func(name string) Program {
		return &toyProgram{
			name:  name,
			suite: SuiteSDK,
			run: func(dev *sim.GPU) error {
				return Validatef(name, "deliberate failure")
			},
		}
	}
	progs := []Program{
		computeBoundToy(4000),
		broken("toy-broken-a"),
		broken("toy-broken-b"),
		broken("toy-broken-c"),
	}
	r := NewRunner()
	err := r.MeasureAll(context.Background(), progs, []kepler.Clocks{kepler.Default}, false)
	if err == nil {
		t.Fatal("MeasureAll swallowed hard failures")
	}
	msg := err.Error()
	for _, name := range []string{"toy-broken-a", "toy-broken-b", "toy-broken-c"} {
		if !strings.Contains(msg, name) {
			t.Errorf("aggregated error missing %s: %v", name, err)
		}
	}
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Errorf("aggregated error lost the ValidationError type: %v", err)
	}
}

func TestSeedForDistinct(t *testing.T) {
	a := seedFor("p", "in", "dev", "cfg", 0)
	b := seedFor("p", "in", "dev", "cfg", 1)
	c := seedFor("p", "in2", "dev", "cfg", 0)
	if a == b || a == c || b == c {
		t.Error("seed collisions")
	}
}

// seedForSprint is seedFor as it was first written, formatting every part
// with fmt.Sprint. TestSeedForUnchanged holds seedFor to it.
func seedForSprint(parts ...any) uint64 {
	h := hashing.New()
	for _, p := range parts {
		h = h.String(fmt.Sprint(p)).Word(0x1f)
	}
	return h.Sum()
}

// TestSeedForUnchanged: seedFor hashes the bytes fmt.Sprint gave the
// original variadic version, so every repetition's seed — and with it every
// perturbed timeline and sensor log — is what it was.
func TestSeedForUnchanged(t *testing.T) {
	for _, id := range []struct {
		program, input, device, config string
	}{
		{"p", "in", "dev", "cfg"}, {"NB", "1m", "K20c", "default"}, {"", "", "", ""},
		{"SSSP-wln", "usa.ny", "GTX1080", "ecc"},
	} {
		for _, rep := range []int{0, 1, 2, 9, 10, 123, -1} {
			got := seedFor(id.program, id.input, id.device, id.config, rep)
			if want := seedForSprint(id.program, id.input, id.device, id.config, rep); got != want {
				t.Errorf("seedFor(%v, %d) = %#x, fmt.Sprint version %#x", id, rep, got, want)
			}
		}
	}
}

func TestPerturbTimelineStretch(t *testing.T) {
	if segs := perturbTimeline(nil, nil, 1); len(segs) != 0 {
		t.Error("nil timeline should stay empty")
	}
	in := []power.Segment{{Start: 0, Duration: 2, Watts: 25}, {Start: 2, Duration: 1, Watts: 90}}
	// The result is appended to dst and stretched by one common factor.
	dst := make([]power.Segment, 1, 8)
	segs := perturbTimeline(dst, in, 1)
	if len(segs) != 3 || &segs[0] != &dst[0] {
		t.Fatalf("perturbTimeline did not append to dst: %+v", segs)
	}
	if ts := segs[1].Duration / in[0].Duration; segs[2].Start != in[1].Start*ts {
		t.Errorf("start %v not stretched by %v", segs[2].Start, ts)
	}
}
