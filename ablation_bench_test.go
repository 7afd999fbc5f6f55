package repro

import (
	"reflect"
	"testing"

	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sim"
)

// Ablation benchmarks: each isolates one modeling decision DESIGN.md calls
// out and reports, as a custom metric, how much that decision contributes
// to the reproduced behaviour. They complement the per-table benchmarks in
// bench_test.go.

// computeKernel builds a compute-bound device run.
func computeKernel(clk kepler.Clocks) *sim.Device {
	dev := sim.NewDevice(clk)
	l := dev.Launch("fma", 1024, 256, func(c *sim.Ctx) { c.FP32Ops(800) })
	dev.Repeat(l, 2000)
	return dev
}

// scatteredKernel builds an uncoalesced, memory-heavy device run.
func scatteredKernel(clk kepler.Clocks) *sim.Device {
	dev := sim.NewDevice(clk)
	a := dev.NewArray(1<<20, 4)
	l := dev.Launch("gather", 1<<12, 256, func(c *sim.Ctx) {
		h := uint64(c.TID()) * 2654435761 % (1 << 20)
		for k := 0; k < 8; k++ {
			c.Load(a.At(int(h)), 4)
			h = (h*6364136223846793005 + 12345) % (1 << 20)
		}
	})
	dev.Repeat(l, 3000)
	return dev
}

// BenchmarkAblationVoltageScaling quantifies how much of the 614
// configuration's power drop comes from the DVFS voltage reduction rather
// than the frequency alone (the paper's superlinear-power observation).
func BenchmarkAblationVoltageScaling(b *testing.B) {
	noDVFS := kepler.F614
	noDVFS.Name = "614-novdrop"
	noDVFS.VoltageV = kepler.Default.VoltageV // frequency-only ablation
	var withV, withoutV float64
	for i := 0; i < b.N; i++ {
		base := computeKernel(kepler.Default)
		dvfs := computeKernel(kepler.F614)
		flat := computeKernel(noDVFS)
		p0 := power.ActiveEnergy(base) / base.ActiveTime()
		withV = power.ActiveEnergy(dvfs) / dvfs.ActiveTime() / p0
		withoutV = power.ActiveEnergy(flat) / flat.ActiveTime() / p0
	}
	b.ReportMetric(withV, "powerRatio-dvfs")
	b.ReportMetric(withoutV, "powerRatio-freqonly")
	if withV >= withoutV {
		b.Fatalf("voltage scaling contributes nothing: %f vs %f", withV, withoutV)
	}
}

// BenchmarkAblationECCScatter quantifies the extra ECC runtime penalty on
// scattered access streams compared to coalesced ones (the mechanism behind
// Lonestar's outsized ECC cost).
func BenchmarkAblationECCScatter(b *testing.B) {
	var coalesced, scattered float64
	for i := 0; i < b.N; i++ {
		mk := func(clk kepler.Clocks) *sim.Device {
			dev := sim.NewDevice(clk)
			a := dev.NewArray(1<<20, 4)
			l := dev.Launch("stream", 1<<12, 256, func(c *sim.Ctx) {
				c.LoadRep(a.At(c.TID()), 4, 8)
			})
			dev.Repeat(l, 3000)
			return dev
		}
		coalesced = mk(kepler.ECCDefault).ActiveTime() / mk(kepler.Default).ActiveTime()
		scattered = scatteredKernel(kepler.ECCDefault).ActiveTime() / scatteredKernel(kepler.Default).ActiveTime()
	}
	b.ReportMetric(coalesced, "eccSlowdown-coalesced")
	b.ReportMetric(scattered, "eccSlowdown-scattered")
	if scattered <= coalesced {
		b.Fatalf("scatter penalty missing: %f vs %f", scattered, coalesced)
	}
}

// BenchmarkAblationSensorSwitch quantifies what the sensor's 1 Hz idle rate
// costs: the same low-power run analyzed from a hypothetical always-10 Hz
// sensor succeeds, while the realistic sensor yields too few samples — the
// mechanism behind the paper's 324 MHz exclusions.
func BenchmarkAblationSensorSwitch(b *testing.B) {
	segs := []power.Segment{
		{Start: 0, Duration: 3, Watts: 25},
		{Start: 3, Duration: 8, Watts: 38}, // below the 44 W switch level
		{Start: 11, Duration: 3, Watts: 25},
	}
	k20c := kepler.K20cDevice()
	model10 := k20c.Sensor
	model10.SwitchW = 0 // always active-rate
	var realistic, always10 int
	for i := 0; i < b.N; i++ {
		samples := sensor.Record(segs, k20c.Sensor, 7)
		if _, err := k20power.Analyze(samples, k20c); err != nil {
			realistic++
		}
		samples10 := sensor.Record(segs, model10, 7)
		if _, err := k20power.Analyze(samples10, k20c); err == nil {
			always10++
		}
	}
	b.ReportMetric(float64(realistic)/float64(b.N), "excludedFrac-realistic")
	b.ReportMetric(float64(always10)/float64(b.N), "measuredFrac-always10Hz")
	if realistic != b.N || always10 != b.N {
		b.Fatalf("sensor-switch ablation wrong: %d/%d excluded, %d/%d measured", realistic, b.N, always10, b.N)
	}
}

// BenchmarkAblationBlockOrder quantifies the ordered path's block
// scrambling: the fraction of blocks visited out of block-id order (0 = the
// identity order). The order is a function of (kernel, seq) alone, so it
// must be identical at every clock configuration.
func BenchmarkAblationBlockOrder(b *testing.B) {
	orderOf := func(clk kepler.Clocks) []int {
		dev := sim.NewDevice(clk)
		var order []int
		prev := -1
		dev.LaunchOrdered("order", 512, 64, func(c *sim.Ctx) {
			if c.Block != prev {
				order = append(order, c.Block)
				prev = c.Block
			}
			c.IntOps(1)
		})
		return order
	}
	var scrambled float64
	for i := 0; i < b.N; i++ {
		a := orderOf(kepler.Default)
		if !reflect.DeepEqual(a, orderOf(kepler.F324)) {
			b.Fatal("block order differs across configurations")
		}
		moved := 0
		for j, blk := range a {
			if blk != j {
				moved++
			}
		}
		scrambled = float64(moved) / float64(len(a))
	}
	b.ReportMetric(scrambled, "scrambledFrac")
	if scrambled == 0 {
		b.Fatal("ordered launch visited its blocks in id order")
	}
}

// BenchmarkAblationMaskedLoops quantifies the masked-loop merge semantics:
// a warp whose lanes run 1..32 loop trips costs max trips, not the sum (the
// slot-aligned merge; a path-serialized model would be ~16x costlier).
func BenchmarkAblationMaskedLoops(b *testing.B) {
	var uniform, ragged float64
	for i := 0; i < b.N; i++ {
		mk := func(raggedTrips bool) float64 {
			dev := sim.NewDevice(kepler.Default)
			l := dev.Launch("loop", 512, 256, func(c *sim.Ctx) {
				n := 64
				if raggedTrips {
					n = 2 + (c.TID()%32)*62/31 // 2..64, max 64 per warp
				}
				c.IntOps(n)
			})
			return l.Duration
		}
		uniform = mk(false)
		ragged = mk(true)
	}
	b.ReportMetric(ragged/uniform, "raggedOverUniform")
	// Masked model: ragged warps cost like their longest lane (~1x), not
	// like the sum of all lanes (~8x for this distribution).
	if r := ragged / uniform; r > 1.5 {
		b.Fatalf("ragged loops serialized (%fx); masked-lane costing broken", r)
	}
}
