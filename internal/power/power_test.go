package power

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/kepler"
	"repro/internal/sim"
	"repro/internal/trace"
)

// idleW is the K20c's driver-idle power, the floor every K20c timeline
// returns to (all configurations in these tests belong to the K20c).
var idleW = IdleW(kepler.Default)

// priced runs prog on a GPU of clk's device and prices the run at clk.
func priced(clk kepler.Clocks, prog func(*sim.GPU)) *sim.Device {
	g := sim.NewGPU(clk.Device())
	prog(g)
	d, err := g.Trace().Replay(clk)
	if err != nil {
		panic(err)
	}
	return d
}

// firstLaunch prices prog at clk and returns the device and its first
// launch.
func firstLaunch(clk kepler.Clocks, prog func(*sim.GPU)) (*sim.Device, *sim.Launch) {
	d := priced(clk, prog)
	return d, d.Launches[0]
}

func computeLaunch(clk kepler.Clocks) (*sim.Device, *sim.Launch) {
	return firstLaunch(clk, func(g *sim.GPU) {
		g.Launch("fma", 1024, 256, func(c *sim.Ctx) { c.FP32Ops(800) })
	})
}

func memoryLaunch(clk kepler.Clocks) (*sim.Device, *sim.Launch) {
	return firstLaunch(clk, func(g *sim.GPU) {
		a := g.NewArray(1<<22, 4)
		g.Launch("stream", 1<<13, 256, func(c *sim.Ctx) {
			c.LoadRep(a.At(c.TID()), 4, 32)
		})
	})
}

func TestStaticPowerOrdering(t *testing.T) {
	sDef := StaticActiveW(kepler.Default)
	s614 := StaticActiveW(kepler.F614)
	s324 := StaticActiveW(kepler.F324)
	if !(sDef > s614 && s614 > s324) {
		t.Errorf("static power not monotone: %f %f %f", sDef, s614, s324)
	}
	if s324 <= idleW {
		t.Errorf("324 static %f below idle %f", s324, idleW)
	}
	if sDef < 38 || sDef > 48 {
		t.Errorf("default static power %f out of the calibrated 38..48 W band", sDef)
	}
}

func TestTailBetweenIdleAndStatic(t *testing.T) {
	for _, clk := range kepler.Configs {
		tail := TailW(clk)
		if tail <= idleW || tail >= StaticActiveW(clk) {
			t.Errorf("%s: tail %f not between idle %f and static %f",
				clk.Name, tail, idleW, StaticActiveW(clk))
		}
	}
}

func TestComputeBoundPowerBand(t *testing.T) {
	_, l := computeLaunch(kepler.Default)
	p := LaunchPower(kepler.Default, l)
	// Paper: regular compute-bound SDK codes draw about 100 W on average.
	if p < 80 || p > 170 {
		t.Errorf("compute-bound power = %.1f W, want 80..170", p)
	}
}

func TestVoltageScalingSuperlinearPowerDrop(t *testing.T) {
	_, lDef := computeLaunch(kepler.Default)
	_, l614 := computeLaunch(kepler.F614)
	pDef := LaunchPower(kepler.Default, lDef)
	p614 := LaunchPower(kepler.F614, l614)
	drop := 1 - p614/pDef
	freqDrop := 1 - 614.0/705.0
	// Paper: compute-bound codes can see power reductions exceeding the
	// core-frequency reduction (voltage scales too).
	if drop <= freqDrop {
		t.Errorf("power drop %.3f not superlinear vs frequency drop %.3f", drop, freqDrop)
	}
	// Frequency-only ablation: 614 MHz at the default voltage must drop
	// power less than the real 614 setting, whose voltage falls too.
	freqOnly := kepler.F614
	freqOnly.Name = "614-novdrop"
	freqOnly.VoltageV = kepler.Default.VoltageV
	_, lFlat := computeLaunch(freqOnly)
	flatDrop := 1 - LaunchPower(freqOnly, lFlat)/pDef
	t.Logf("power drop at 614: %.3f with voltage scaling, %.3f frequency only", drop, flatDrop)
	if flatDrop >= drop {
		t.Errorf("frequency-only power drop %.3f >= real 614 drop %.3f: voltage scaling contributes nothing", flatDrop, drop)
	}
}

func TestEnergyRoughlyConstantUnderCoreScaling(t *testing.T) {
	_, lDef := computeLaunch(kepler.Default)
	_, l614 := computeLaunch(kepler.F614)
	eDef := LaunchEnergy(kepler.Default, lDef)
	e614 := LaunchEnergy(kepler.F614, l614)
	// Paper: energy does not rise with the runtime increase; it stays flat
	// or drops slightly.
	if e614 > eDef*1.02 {
		t.Errorf("614 energy %.1f J vs default %.1f J: want <= ~default", e614, eDef)
	}
}

func TestMemoryBoundPowerLowerThanComputeBound(t *testing.T) {
	_, lc := computeLaunch(kepler.Default)
	_, lm := memoryLaunch(kepler.Default)
	pc := LaunchPower(kepler.Default, lc)
	pm := LaunchPower(kepler.Default, lm)
	if pm >= pc {
		t.Errorf("memory-bound power %.1f W >= compute-bound %.1f W", pm, pc)
	}
}

func TestECCEnergyRiseExceedsRuntimeRiseOnScattered(t *testing.T) {
	scattered := func(clk kepler.Clocks) (*sim.Launch, float64, float64) {
		_, l := firstLaunch(clk, func(g *sim.GPU) {
			a := g.NewArray(1<<20, 4)
			g.Launch("gather", 1<<12, 256, func(c *sim.Ctx) {
				h := uint64(c.TID()) * 2654435761 % (1 << 20)
				for k := 0; k < 8; k++ {
					c.Load(a.At(int(h)), 4)
					h = (h*6364136223846793005 + 12345) % (1 << 20)
				}
			})
		})
		return l, l.Duration, LaunchEnergy(clk, l)
	}
	_, tDef, eDef := scattered(kepler.Default)
	_, tECC, eECC := scattered(kepler.ECCDefault)
	timeRise := tECC / tDef
	energyRise := eECC / eDef
	if timeRise <= 1.0 {
		t.Fatalf("ECC did not slow scattered kernel (%.3f)", timeRise)
	}
	if energyRise <= timeRise {
		t.Errorf("ECC energy rise %.3f <= runtime rise %.3f; paper: Lonestar energy rises more", energyRise, timeRise)
	}
}

func TestTimelineShape(t *testing.T) {
	d, _ := computeLaunch(kepler.Default)
	segs := Timeline(d)
	if len(segs) < 3 {
		t.Fatalf("timeline too short: %d segments", len(segs))
	}
	if segs[0].Watts != idleW || segs[0].Start != 0 {
		t.Error("timeline must start with idle")
	}
	last := segs[len(segs)-1]
	if last.Watts != idleW {
		t.Error("timeline must end with idle")
	}
	tail := segs[len(segs)-2]
	if tail.Watts <= idleW || tail.Watts >= StaticActiveW(d.Clocks) {
		t.Errorf("tail level %f implausible", tail.Watts)
	}
	// Segments are time-ordered and non-overlapping (allowing fp slack).
	for i := 1; i < len(segs); i++ {
		if segs[i].Start < segs[i-1].Start-1e-9 {
			t.Fatal("timeline not sorted")
		}
	}
}

func TestTimelineEnergyConservation(t *testing.T) {
	d, l := computeLaunch(kepler.Default)
	var total float64
	for _, s := range Timeline(d) {
		total += s.Watts * s.Duration
	}
	active := ActiveEnergy(d)
	if active <= 0 {
		t.Fatal("no active energy")
	}
	// Total = active + idle/tail energy; must exceed active but not by more
	// than the idle spans allow.
	idleMax := (leadIdle+trailIdle)*idleW + tailDuration*TailW(d.Clocks) + 1e-9
	if total < active || total > active+idleMax {
		t.Errorf("timeline energy %.1f J vs active %.1f J (+%.1f idle max)", total, active, idleMax)
	}
	_ = l
}

func TestPropertyLaunchPowerBounds(t *testing.T) {
	// For any mix of work, power stays within physical bounds.
	f := func(fp32, ints, txnsRaw uint16) bool {
		s := trace.KernelStats{
			Warps:      100,
			Paths:      100,
			FP32Insts:  int64(fp32),
			IntInsts:   int64(ints),
			GlobalTxns: int64(txnsRaw % 1000),
		}
		s.GlobalBytes = s.GlobalTxns * 128
		l := &sim.Launch{Stats: s, Duration: 1e-3, Repeat: 1, Scale: 1}
		p := LaunchPower(kepler.Default, l)
		return p >= StaticActiveW(kepler.Default)-1e-9 && p < 400
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	// Same per-duration work: power falls when clocks fall.
	mk := func(clk kepler.Clocks) float64 {
		_, l := computeLaunch(clk)
		return LaunchPower(clk, l)
	}
	pDef, p614, p324 := mk(kepler.Default), mk(kepler.F614), mk(kepler.F324)
	if !(pDef > p614 && p614 > p324) {
		t.Errorf("power not monotone: %.1f %.1f %.1f", pDef, p614, p324)
	}
}

// stableSortTimeline is the reference ordering Timeline's merge replaces:
// every launch, then every gap, stably sorted by start time.
func stableSortTimeline(dev *sim.Device) []Segment {
	type event struct{ start, dur, watts float64 }
	clk := dev.Clocks
	var events []event
	for _, l := range dev.Launches {
		events = append(events, event{l.Start, l.TotalDuration(), LaunchPower(clk, l)})
	}
	for _, g := range dev.Gaps {
		events = append(events, event{g.Start, g.Duration, TailW(clk)})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].start < events[j].start })
	segs := []Segment{{Start: 0, Duration: leadIdle, Watts: IdleW(clk)}}
	end := leadIdle
	for _, e := range events {
		if e.dur > 0 {
			segs = append(segs, Segment{Start: leadIdle + e.start, Duration: e.dur, Watts: e.watts})
		}
		end = leadIdle + e.start + e.dur
	}
	segs = append(segs, Segment{Start: end, Duration: tailDuration, Watts: TailW(clk)})
	return append(segs, Segment{Start: end + tailDuration, Duration: trailIdle, Watts: IdleW(clk)})
}

// TestTimelineMergeMatchesStableSort drives random runs through launches,
// host pauses and Repeat calls on earlier (mid-timeline) launches, and
// checks that Timeline's linear merge equals a stable sort of the launches
// followed by the gaps, segment for segment and bit for bit.
func TestTimelineMergeMatchesStableSort(t *testing.T) {
	f := func(ops []uint16) bool {
		d := priced(kepler.Default, func(g *sim.GPU) {
			var repeats []int // each launch's Repeat count so far
			for _, op := range ops {
				switch arg := int(op >> 2); op & 3 {
				case 0, 1:
					g.Launch("k", 1+arg%8, 32, func(c *sim.Ctx) { c.FP32Ops(1 + arg%50) })
					repeats = append(repeats, 1)
				case 2:
					g.HostPause(float64(arg%7) * 1e-4)
				case 3:
					if len(repeats) > 0 {
						l := arg % len(repeats)
						repeats[l] += 1 + arg%3
						g.Repeat(sim.LaunchID(l), repeats[l])
					}
				}
			}
		})
		got, want := Timeline(d), stableSortTimeline(d)
		if len(got) != len(want) {
			t.Logf("%d segments, want %d", len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("segment %d = %+v, want %+v", i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	// Equal starts: the launch precedes the gap, as in the stable sort;
	// a zero-length entry still sets the timeline's end.
	tied := &sim.Device{
		Clocks: kepler.Default,
		Launches: []*sim.Launch{
			{Start: 0, Duration: 1e-3, Repeat: 1, Scale: 1},
			{Start: 2e-3, Duration: 1e-3, Repeat: 1, Scale: 1},
			{Start: 4e-3, Repeat: 1, Scale: 1},
		},
		Gaps: []sim.Gap{{Start: 0, Duration: 2e-3}, {Start: 2e-3, Duration: 1e-3}, {Start: 4e-3}},
	}
	got, want := Timeline(tied), stableSortTimeline(tied)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tied starts: got %+v, want %+v", got, want)
	}
}

func TestLaunchPowerZeroDuration(t *testing.T) {
	l := &sim.Launch{Repeat: 1, Scale: 1}
	p := LaunchPower(kepler.Default, l)
	if math.Abs(p-StaticActiveW(kepler.Default)) > 1e-9 {
		t.Errorf("zero-duration power = %f", p)
	}
}

func TestTimeScalePreservesPower(t *testing.T) {
	run := func(scale float64) (float64, float64) {
		_, l := firstLaunch(kepler.Default, func(g *sim.GPU) {
			g.SetTimeScale(scale)
			g.Launch("fma", 1024, 256, func(c *sim.Ctx) { c.FP32Ops(800) })
		})
		return LaunchPower(kepler.Default, l), LaunchEnergy(kepler.Default, l)
	}
	p1, e1 := run(1)
	p40, e40 := run(40)
	if math.Abs(p40/p1-1) > 1e-9 {
		t.Errorf("power changed under time scale: %f vs %f", p1, p40)
	}
	if math.Abs(e40/e1-40) > 1e-9 {
		t.Errorf("energy did not scale 40x: %f vs %f", e1, e40)
	}
}

func TestRepeatScalesEnergyLinearly(t *testing.T) {
	mk := func(repeats int) (float64, float64) {
		d := priced(kepler.Default, func(g *sim.GPU) {
			g.Repeat(g.Launch("fma", 512, 256, func(c *sim.Ctx) { c.FP32Ops(400) }), repeats)
		})
		return ActiveEnergy(d), d.ActiveTime()
	}
	e1, t1 := mk(1)
	e10, t10 := mk(10)
	if math.Abs(e10/e1-10) > 1e-9 || math.Abs(t10/t1-10) > 1e-9 {
		t.Errorf("replay not linear: energy x%f time x%f", e10/e1, t10/t1)
	}
}

func TestBoardPowerScales(t *testing.T) {
	// The K40 must burn more static power than the K20c at its defaults.
	k40 := kepler.Models[3].Configurations()[0]
	if StaticActiveW(k40) <= StaticActiveW(kepler.Default) {
		t.Errorf("K40 static %.1f <= K20c %.1f", StaticActiveW(k40), StaticActiveW(kepler.Default))
	}
	if IdleW(k40) <= IdleW(kepler.Default) {
		t.Errorf("K40 idle %.1f <= K20c %.1f", IdleW(k40), IdleW(kepler.Default))
	}
}
