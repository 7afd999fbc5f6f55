package sim

import (
	"math/rand"
	"testing"

	"repro/internal/kepler"
)

// captureProgram is a synthetic clock-insensitive run exercising every
// timeline construct replay must reproduce: plain and shared launches, a
// surrogate scale change mid-run, host pauses, and both tail and
// mid-timeline Repeat calls.
func captureProgram(d *Device) {
	data := d.NewArray(1<<14, 4)
	d.Launch("init", 64, 256, func(c *Ctx) {
		c.Store(data.At(c.TID()), 4)
		c.IntOps(4)
	})
	d.HostPause(0.01)
	d.SetTimeScale(3)
	var mid *Launch
	for i := 0; i < 4; i++ {
		l := d.LaunchShared("sweep", 96, 128, 4096, func(c *Ctx) {
			c.Load(data.At(c.TID()), 4)
			c.FP32Ops(48 + c.TID()%5)
			c.SharedAccessRep(uint64(c.Thread*4), 2)
			c.SyncThreads()
			c.Store(data.At(c.TID()), 4)
		})
		if i == 1 {
			mid = l
		}
	}
	d.HostPause(0.002)
	last := d.Launch("reduce", 8, 256, func(c *Ctx) {
		c.Load(data.At(c.TID()), 4)
		c.IntOps(32)
	})
	d.Repeat(last, 50)
	// Mid-timeline replay: shifts the launches and gaps after `mid`.
	d.Repeat(mid, 7)
}

// diffDevices compares the timeline state replay promises to reproduce:
// Launches (every field), Gaps and the running clock. It returns "" when
// the devices agree bit for bit.
func diffDevices(a, b *Device) string {
	if a.Now() != b.Now() {
		return "Now() differs"
	}
	if len(a.Launches) != len(b.Launches) {
		return "launch count differs"
	}
	if len(a.Gaps) != len(b.Gaps) {
		return "gap count differs"
	}
	for i := range a.Gaps {
		if a.Gaps[i] != b.Gaps[i] {
			return "gap differs"
		}
	}
	for i, la := range a.Launches {
		lb := b.Launches[i]
		if la.Name != lb.Name || la.Seq != lb.Seq || la.Grid != lb.Grid ||
			la.Block != lb.Block || la.SharedPerBlock != lb.SharedPerBlock ||
			la.Occ != lb.Occ || la.Stats != lb.Stats {
			return "launch identity/stats differ"
		}
		if la.Start != lb.Start || la.Duration != lb.Duration ||
			la.Repeat != lb.Repeat || la.Scale != lb.Scale ||
			la.TCore != lb.TCore || la.TMem != lb.TMem {
			return "launch timing differs"
		}
	}
	return ""
}

// TestReplayBitIdenticalAcrossConfigs is the replay soundness contract: a
// trace captured at one configuration, replayed at every configuration,
// must reproduce the timeline state of a fresh simulation there bit for
// bit — including for the capture configuration itself.
func TestReplayBitIdenticalAcrossConfigs(t *testing.T) {
	capDev := NewDevice(kepler.Default)
	capDev.BeginCapture()
	captureProgram(capDev)
	tr := capDev.EndCapture()

	if tr.ClockSensitive() {
		t.Fatalf("insensitive program marked sensitive: %s", tr.SensitiveReason())
	}
	if tr.Launches() != 6 {
		t.Errorf("captured %d launches, want 6", tr.Launches())
	}
	if tr.Bytes() <= 0 {
		t.Error("trace reports zero footprint")
	}

	for _, clk := range kepler.Configs {
		fresh := NewDevice(clk)
		captureProgram(fresh)

		replayed, err := tr.Replay(clk)
		if err != nil {
			t.Fatalf("%s: replay: %v", clk.Name, err)
		}
		if d := diffDevices(fresh, replayed); d != "" {
			t.Errorf("%s: replay diverged from fresh simulation: %s", clk.Name, d)
		}
	}
}

// TestCaptureLeavesSimulationUntouched: capturing must not perturb the
// simulation it observes — the capture device's own timeline must equal a
// capture-free run's.
func TestCaptureLeavesSimulationUntouched(t *testing.T) {
	plain := NewDevice(kepler.Default)
	captureProgram(plain)

	captured := NewDevice(kepler.Default)
	captured.BeginCapture()
	captureProgram(captured)
	captured.EndCapture()

	if d := diffDevices(plain, captured); d != "" {
		t.Errorf("capture perturbed the simulation: %s", d)
	}
}

// orderedProgram self-schedules through an ordered launch: each block's
// work depends on a shared accumulator the earlier blocks advanced, and the
// follow-up launch's grid depends on where the accumulator ended. Its
// timeline is therefore a function of the block order.
func orderedProgram(d *Device) {
	acc := 0
	d.LaunchOrdered("relax", 32, 64, func(c *Ctx) {
		c.IntOps(1 + acc%7)
		if c.Thread == 0 {
			acc = (acc*31 + c.Block) % 1009
		}
	})
	d.HostPause(0.001)
	l := d.Launch("post", 8+acc%16, 128, func(c *Ctx) { c.FP32Ops(4) })
	d.Repeat(l, 3)
}

// TestOrderedLaunchReplays: the ordered block permutation reads no clock,
// so an ordered capture at the default configuration replays at every
// configuration to the timeline a fresh simulation there produces.
func TestOrderedLaunchReplays(t *testing.T) {
	d := NewDevice(kepler.Default)
	d.BeginCapture()
	orderedProgram(d)
	tr := d.EndCapture()
	if tr.ClockSensitive() {
		t.Fatalf("ordered launch marked the trace clock-sensitive: %s", tr.SensitiveReason())
	}
	if tr.Launches() != 2 {
		t.Fatalf("captured %d launches, want 2", tr.Launches())
	}
	for _, clk := range kepler.Configs {
		replayed, err := tr.Replay(clk)
		if err != nil {
			t.Fatalf("%s: %v", clk.Name, err)
		}
		fresh := NewDevice(clk)
		orderedProgram(fresh)
		if diff := diffDevices(fresh, replayed); diff != "" {
			t.Errorf("%s: replay vs fresh simulation: %s", clk.Name, diff)
		}
	}
}

// TestMidRunClockReadsMarkSensitive: Now() and ActiveTime() expose priced
// (config-dependent) time, so reading them mid-capture must mark the trace.
func TestMidRunClockReadsMarkSensitive(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(*Device)
	}{
		{"Now", func(d *Device) { _ = d.Now() }},
		{"ActiveTime", func(d *Device) { _ = d.ActiveTime() }},
	} {
		d := NewDevice(kepler.Default)
		d.BeginCapture()
		d.Launch("k", 8, 64, func(c *Ctx) { c.IntOps(1) })
		tc.read(d)
		tr := d.EndCapture()
		if !tr.ClockSensitive() {
			t.Errorf("mid-run %s() read did not mark the trace clock-sensitive", tc.name)
		}
	}

	// Reads outside a capture window are free: the pipeline itself reads
	// ActiveTime after EndCapture.
	d := NewDevice(kepler.Default)
	d.BeginCapture()
	d.Launch("k", 8, 64, func(c *Ctx) { c.IntOps(1) })
	tr := d.EndCapture()
	_ = d.Now()
	_ = d.ActiveTime()
	if tr.ClockSensitive() {
		t.Error("post-capture clock reads marked the trace sensitive")
	}
}

// TestListScheduleHeapMatchesLinear: the heap scheduler must return the
// exact makespan of the linear first-minimum scan — same slot assignment,
// same float accumulation order — across degenerate and realistic shapes.
func TestListScheduleHeapMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ blocks, slots int }{
		{0, 13}, {1, 1}, {1, 13}, {5, 208}, {13, 13}, {100, 1},
		{100, 7}, {1000, 13}, {2048, 104}, {20000, 208}, {999, 2},
	}
	for _, sh := range shapes {
		costs := make([]float64, sh.blocks)
		for i := range costs {
			switch rng.Intn(3) {
			case 0:
				costs[i] = float64(rng.Intn(4)) // many exact ties
			case 1:
				costs[i] = rng.Float64() * 1000
			default:
				costs[i] = rng.ExpFloat64() * 50 // heavy tail
			}
		}
		got := listSchedule(costs, sh.slots)
		want := listScheduleLinear(costs, sh.slots)
		if got != want {
			t.Errorf("blocks=%d slots=%d: heap makespan %v != linear %v",
				sh.blocks, sh.slots, got, want)
		}
	}
}

// BenchmarkListScheduleHeap / BenchmarkListScheduleLinear measure the
// makespan scheduler at a realistic worst case: tens of thousands of
// imbalanced blocks over the device's 208 block slots.
func benchCosts() []float64 {
	rng := rand.New(rand.NewSource(7))
	costs := make([]float64, 20000)
	for i := range costs {
		costs[i] = rng.ExpFloat64() * 100
	}
	return costs
}

func BenchmarkListScheduleHeap(b *testing.B) {
	costs := benchCosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		listSchedule(costs, 208)
	}
}

func BenchmarkListScheduleLinear(b *testing.B) {
	costs := benchCosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		listScheduleLinear(costs, 208)
	}
}

// TestExecutorPoolTrimsOutsizedBuffers: returning an executor whose lane
// logs were grown by a huge kernel must drop those buffers instead of
// pinning them in the pool, while modest buffers are retained for reuse.
func TestExecutorPoolTrimsOutsizedBuffers(t *testing.T) {
	big := newBlockExecutor()
	spec := LaunchSpec{Name: "huge", Grid: 1, Block: 32}
	big.runBlock(spec, func(c *Ctx) {
		for i := 0; i < maxPooledOpsPerLane+100; i++ {
			c.IntOps(1)
		}
	}, 0)
	for ln, l := range big.lanes {
		if l.Cap() <= maxPooledOpsPerLane {
			t.Fatalf("lane %d: test did not grow the buffer past the cap (%d)", ln, l.Cap())
		}
	}
	putExecutor(big)
	for ln, l := range big.lanes {
		if l.Cap() != 0 {
			t.Errorf("lane %d: outsized buffer survived putExecutor (cap %d)", ln, l.Cap())
		}
	}

	small := newBlockExecutor()
	small.runBlock(LaunchSpec{Name: "small", Grid: 1, Block: 32}, func(c *Ctx) {
		c.IntOps(1)
		c.FP32Ops(2)
	}, 0)
	caps := make([]int, len(small.lanes))
	for ln, l := range small.lanes {
		if l.Cap() == 0 {
			t.Fatalf("lane %d: small kernel recorded nothing", ln)
		}
		caps[ln] = l.Cap()
	}
	putExecutor(small)
	for ln, l := range small.lanes {
		if l.Cap() != caps[ln] {
			t.Errorf("lane %d: modest buffer dropped (cap %d -> %d)", ln, caps[ln], l.Cap())
		}
	}
}

// TestExecutorReusableAfterTrim: a trimmed executor must still simulate
// correctly (buffers reallocate lazily).
func TestExecutorReusableAfterTrim(t *testing.T) {
	e := newBlockExecutor()
	spec := LaunchSpec{Name: "k", Grid: 1, Block: 64}
	grow := func(c *Ctx) {
		for i := 0; i < maxPooledOpsPerLane+1; i++ {
			c.IntOps(1)
		}
	}
	ref := e.runBlock(spec, grow, 0)
	putExecutor(e)
	if got := e.runBlock(spec, grow, 0); got != ref {
		t.Errorf("stats differ after trim: %+v vs %+v", got, ref)
	}
}

// BenchmarkTraceReplay measures the replay path itself: pricing a captured
// mid-size timeline at another configuration.
func BenchmarkTraceReplay(b *testing.B) {
	d := NewDevice(kepler.Default)
	d.BeginCapture()
	captureProgram(d)
	tr := d.EndCapture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Replay(kepler.Configs[i%len(kepler.Configs)]); err != nil {
			b.Fatal(err)
		}
	}
}
