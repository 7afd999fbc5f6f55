package power

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kepler"
	"repro/internal/sim"
	"repro/internal/trace"
)

// mixedProgram launches a kernel exercising every attribution class at
// once.
func mixedProgram(g *sim.GPU) {
	a := g.NewArray(1<<20, 4)
	l := g.Launch("mixed", 512, 256, func(c *sim.Ctx) {
		c.IntOps(40)
		c.FP32Ops(120)
		c.FP64Ops(8)
		c.SFUOps(4)
		c.Load(a.At(c.TID()), 4)
		c.SharedAccess(uint64(c.Lane()))
		c.Store(a.At(c.TID()*7), 4)
		c.AtomicOp(0)
		c.SyncThreads()
	})
	g.Repeat(l, 500)
}

// mixedLaunch prices mixedProgram at clk.
func mixedLaunch(clk kepler.Clocks) (*sim.Device, *sim.Launch) {
	return firstLaunch(clk, mixedProgram)
}

// TestAttributeLaunchTieOut: no class of any launch is charged a negative
// or NaN energy, at every K20c configuration and for both compute- and
// memory-dominated kernels.
func TestAttributeLaunchTieOut(t *testing.T) {
	for name, build := range launchBuilders {
		for _, clk := range kepler.Configs {
			_, l := build(clk)
			for c, e := range AttributeLaunch(clk, l) {
				if e < 0 || math.IsNaN(e) {
					t.Errorf("%s@%s: class %s energy %g", name, clk.Name, Class(c), e)
				}
			}
		}
	}
}

// launchBuilders are the single-launch kernels the attribution tests price.
var launchBuilders = map[string]func(kepler.Clocks) (*sim.Device, *sim.Launch){
	"compute": computeLaunch,
	"memory":  memoryLaunch,
	"mixed":   mixedLaunch,
}

// TestAttributeStaticSplit: the display split leaves exactly the static
// power over the launch's executions in StaticJ, up to rounding.
func TestAttributeStaticSplit(t *testing.T) {
	for name, build := range launchBuilders {
		for _, clk := range kepler.Configs {
			d, _ := build(clk)
			for _, la := range Attribute(d).Launches {
				want := StaticActiveW(clk) * la.DurationS * float64(la.Repeat)
				if diff := math.Abs(la.StaticJ - want); diff > 1e-12*la.TotalJ {
					t.Errorf("%s@%s: StaticJ %v, static power x duration %v (diff %g, total %v)",
						name, clk.Name, la.StaticJ, want, diff, la.TotalJ)
				}
			}
		}
	}
}

// TestAttributeMixedCoversAllClasses: the mixed kernel must charge every
// class a strictly positive energy — otherwise the attribution tests prove
// nothing about the classes it missed.
func TestAttributeMixedCoversAllClasses(t *testing.T) {
	_, l := mixedLaunch(kepler.Default)
	vec := AttributeLaunch(kepler.Default, l)
	for c, e := range vec {
		if !(e > 0) {
			t.Errorf("class %s charged %g, want > 0 from the mixed kernel", Class(c), e)
		}
	}
}

// TestAttributeRunTotals: Attribute's run total must reproduce ActiveEnergy
// bit-exactly, and the kernel rollup must account for every launch.
func TestAttributeRunTotals(t *testing.T) {
	for _, clk := range kepler.Configs {
		d := priced(clk, func(g *sim.GPU) {
			mixedProgram(g)
			g.Launch("second", 64, 128, func(c *sim.Ctx) { c.FP32Ops(64) })
		})
		a := Attribute(d)
		if want := ActiveEnergy(d); a.TotalJ != want {
			t.Errorf("%s: TotalJ %v != ActiveEnergy %v", clk.Name, a.TotalJ, want)
		}
		if len(a.Launches) != len(d.Launches) {
			t.Errorf("%s: %d launch attributions for %d launches", clk.Name, len(a.Launches), len(d.Launches))
		}
		if len(a.Kernels) != 2 {
			t.Errorf("%s: %d kernels, want 2", clk.Name, len(a.Kernels))
		}
		var kd float64
		for _, k := range a.Kernels {
			kd += k.DynamicJ
		}
		if rel := math.Abs(kd/a.DynamicJ - 1); rel > 1e-12 {
			t.Errorf("%s: kernel rollup dynamic %v vs run %v", clk.Name, kd, a.DynamicJ)
		}
		if a.StaticJ != a.TotalJ-a.DynamicJ {
			t.Errorf("%s: StaticJ %v != TotalJ-DynamicJ %v", clk.Name, a.StaticJ, a.TotalJ-a.DynamicJ)
		}
	}
}

// dynamicRef is the summed-then-scaled dynamic energy expression that
// classEnergies replaced, kept verbatim. TestClassEnergiesMatchReference
// holds the class sum to it.
func dynamicRef(clk kepler.Clocks, s *trace.KernelStats) float64 {
	d := clk.Device()
	t := d.Energy
	v := clk.VoltageV / d.Power.RefVoltageV
	v2 := v * v

	core := float64(s.IntInsts)*t.IntJ +
		float64(s.FP32Insts)*t.FP32J +
		float64(s.FP64Insts)*t.FP64J +
		float64(s.SFUInsts)*t.SFUJ +
		float64(s.SharedCycles)*t.SharedJ +
		float64(s.LoadSlots+s.StoreSlots)*t.LDSTJ +
		float64(s.Syncs)*t.SyncJ
	// Serialized divergent paths keep fetch/decode and the operand
	// collectors busy without retiring useful lanes.
	if dr := s.DivergenceRatio(); dr > 1 {
		core *= 1 + t.DivergenceFactor*(dr-1)
	}
	core *= v2

	txns := effectiveTxns(clk, s)
	mem := txns*t.TxnJ + float64(s.Atomics)*t.AtomicJ

	return (core + mem) * d.Power.EnergyScale
}

// TestClassEnergiesMatchReference: on every device profile, at every
// canonical configuration (ECC ones included), the class sum of seeded
// random statistics — convergent and divergent, coalesced and scattered —
// stays within rounding of the expression it replaced.
func TestClassEnergiesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := func(max int64) int64 {
		if r.Intn(4) == 0 {
			return 0
		}
		return r.Int63n(max)
	}
	var worst float64
	for i := 0; i < 20000; i++ {
		s := trace.KernelStats{
			IntInsts: n(1 << 30), FP32Insts: n(1 << 30), FP64Insts: n(1 << 24),
			SFUInsts: n(1 << 24), SharedCycles: n(1 << 28),
			LoadSlots: n(1 << 26), StoreSlots: n(1 << 26),
			GlobalTxns: n(1 << 26), Atomics: n(1 << 20), Syncs: n(1 << 20),
		}
		s.GlobalBytes = r.Int63n(s.GlobalTxns*128 + 1)
		s.Warps = 1 + r.Int63n(1<<16)
		s.Slots = 1 + r.Int63n(1<<24)
		s.Paths = s.Slots
		if r.Intn(2) == 0 {
			s.Paths += r.Int63n(3 * s.Slots)
		}
		for _, dev := range kepler.Devices() {
			for _, clk := range dev.Configurations() {
				want := dynamicRef(clk, &s)
				got := classEnergies(clk, &s).Total()
				rel := 0.0
				if want != 0 {
					rel = math.Abs(got/want - 1)
				} else if got != 0 {
					rel = math.Inf(1)
				}
				worst = math.Max(worst, rel)
				if !(rel <= 1e-14) {
					t.Fatalf("%s@%s: class sum %v, reference %v (rel %.3g) for %+v",
						dev.Name, clk.Name, got, want, rel, s)
				}
			}
		}
	}
	t.Logf("worst relative difference %.3g", worst)
}

// TestClassVecJSONRoundTrip: the named-class JSON form must round-trip and
// reject unknown class names.
func TestClassVecJSONRoundTrip(t *testing.T) {
	var v ClassVec
	for i := range v {
		v[i] = float64(i+1) * 1.5
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"int":`, `"fp32":`, `"fp64":`, `"sfu":`, `"shared":`, `"ldst":`, `"sync":`, `"dram":`, `"atomic":`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("marshaled vector missing %s: %s", key, data)
		}
	}
	var back ClassVec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != v {
		t.Errorf("round trip changed the vector: %v vs %v", back, v)
	}
	if err := json.Unmarshal([]byte(`{"flops": 1}`), &back); err == nil {
		t.Error("unknown class name accepted")
	}
}

// TestOnePassPricingMatchesReference: pricing each launch once changes no
// bit. AppendTimeline's energy is ActiveEnergy's, which is the launch-order
// sum of LaunchEnergy over the repeats, its segments are Timeline's, and
// every Attribute row is the one AttributeLaunch and LaunchEnergy give the
// launch on their own — on every device's canonical configurations.
func TestOnePassPricingMatchesReference(t *testing.T) {
	buf := make([]Segment, 3, 64) // a reused buffer's stale contents
	for _, dev := range kepler.Devices() {
		for _, clk := range dev.Configurations() {
			d := priced(clk, func(g *sim.GPU) {
				mixedProgram(g)
				g.HostPause(0.02)
				g.Launch("second", 64, 128, func(c *sim.Ctx) { c.FP32Ops(64) })
				g.Launch("mixed", 8, 32, func(c *sim.Ctx) { c.IntOps(3) })
			})

			var want float64
			for _, l := range d.Launches {
				want += LaunchEnergy(clk, l) * float64(l.Repeat)
			}
			if got := ActiveEnergy(d); got != want {
				t.Errorf("%s@%s: ActiveEnergy %v, launch-order LaunchEnergy sum %v", dev.Name, clk.Name, got, want)
			}
			segs, e := AppendTimeline(buf[:0], d)
			if e != want {
				t.Errorf("%s@%s: AppendTimeline energy %v != ActiveEnergy %v", dev.Name, clk.Name, e, want)
			}
			if ref := Timeline(d); !reflect.DeepEqual(segs, ref) {
				t.Errorf("%s@%s: AppendTimeline segments differ from Timeline", dev.Name, clk.Name)
			}

			a := Attribute(d)
			if a.TotalJ != want {
				t.Errorf("%s@%s: TotalJ %v != ActiveEnergy %v", dev.Name, clk.Name, a.TotalJ, want)
			}
			for i, l := range d.Launches {
				vec := AttributeLaunch(clk, l)
				tot := LaunchEnergy(clk, l) * float64(l.Repeat)
				ref := LaunchAttribution{Kernel: l.Name, Seq: l.Seq, Repeat: l.Repeat, DurationS: l.Duration,
					Classes: vec, DynamicJ: vec.Total(), StaticJ: tot - vec.Total(), TotalJ: tot}
				if a.Launches[i] != ref {
					t.Errorf("%s@%s launch %d: row %+v, want %+v", dev.Name, clk.Name, i, a.Launches[i], ref)
				}
			}
		}
	}
}
