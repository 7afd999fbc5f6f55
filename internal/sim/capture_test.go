package sim

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kepler"
)

// captureProgram is a synthetic run exercising every timeline construct
// replay must reproduce: plain and shared launches, a surrogate scale change
// mid-run, host pauses, and both tail and mid-timeline Repeat calls.
func captureProgram(g *GPU) {
	data := g.NewArray(1<<14, 4)
	g.Launch("init", 64, 256, func(c *Ctx) {
		c.Store(data.At(c.TID()), 4)
		c.IntOps(4)
	})
	g.HostPause(0.01)
	g.SetTimeScale(3)
	var mid LaunchID
	for i := 0; i < 4; i++ {
		l := g.LaunchShared("sweep", 96, 128, 4096, func(c *Ctx) {
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
	g.HostPause(0.002)
	last := g.Launch("reduce", 8, 256, func(c *Ctx) {
		c.Load(data.At(c.TID()), 4)
		c.IntOps(32)
	})
	g.Repeat(last, 50)
	// Mid-timeline replay: shifts the launches and gaps after `mid`.
	g.Repeat(mid, 7)
}

// capture runs prog on a fresh K20c GPU and returns its trace.
func capture(prog func(*GPU)) *LaunchTrace {
	return captureOn(kepler.K20cDevice(), prog)
}

// captureOn runs prog on a fresh GPU of desc and returns its trace.
func captureOn(desc *kepler.Device, prog func(*GPU)) *LaunchTrace {
	g := NewGPU(desc)
	prog(g)
	return g.Trace()
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

// checkRecaptureIdentical runs prog twice on fresh GPUs: the two traces
// must encode to the same bytes, and replay to bit-identical timelines at
// every configuration of the device. A run's trace, and so every priced
// device, is a function of the program alone.
func checkRecaptureIdentical(t *testing.T, desc *kepler.Device, prog func(*GPU)) *LaunchTrace {
	t.Helper()
	tr, again := captureOn(desc, prog), captureOn(desc, prog)
	a, b := encodeRaw(tr), encodeRaw(again)
	if !bytes.Equal(a, b) {
		t.Errorf("%s: two captures of one program encode differently", desc.Name)
	}
	for _, clk := range desc.Configurations() {
		if d := diffDevices(mustReplay(t, tr, clk), mustReplay(t, again, clk)); d != "" {
			t.Errorf("%s: replays of two captures diverge: %s", clk.Name, d)
		}
	}
	return tr
}

// TestReplayBitIdenticalAcrossConfigs: a capture records every launch, pause
// and repeat, replays at every configuration, and a second capture of the
// same program replays identically.
func TestReplayBitIdenticalAcrossConfigs(t *testing.T) {
	tr := checkRecaptureIdentical(t, kepler.K20cDevice(), captureProgram)
	if tr.ClockSensitive() {
		t.Fatalf("capture marked sensitive: %s", tr.SensitiveReason())
	}
	if tr.Launches() != 6 {
		t.Errorf("captured %d launches, want 6", tr.Launches())
	}
	if tr.Bytes() <= 0 {
		t.Error("trace reports zero footprint")
	}
	for _, clk := range kepler.Configs {
		d := mustReplay(t, tr, clk)
		if len(d.Launches) != 6 || len(d.Gaps) != 7 {
			t.Errorf("%s: %d launches and %d gaps, want 6 and 7", clk.Name, len(d.Launches), len(d.Gaps))
		}
		if got := []int{d.Launches[2].Repeat, d.Launches[5].Repeat}; got[0] != 7 || got[1] != 50 {
			t.Errorf("%s: repeats %v, want [7 50]", clk.Name, got)
		}
	}
}

// orderedProgram self-schedules through an ordered launch: each block's
// work depends on a shared accumulator the earlier blocks advanced, and the
// follow-up launch's grid depends on where the accumulator ended. Its
// timeline is therefore a function of the block order.
func orderedProgram(g *GPU) {
	acc := 0
	g.LaunchOrdered("relax", 32, 64, func(c *Ctx) {
		c.IntOps(1 + acc%7)
		if c.Thread == 0 {
			acc = (acc*31 + c.Block) % 1009
		}
	})
	g.HostPause(0.001)
	l := g.Launch("post", 8+acc%16, 128, func(c *Ctx) { c.FP32Ops(4) })
	g.Repeat(l, 3)
}

// TestOrderedLaunchReplays: the ordered block permutation is a function of
// the kernel name and sequence number, so two captures of a self-scheduling
// program record the same trace, which replays at every configuration.
func TestOrderedLaunchReplays(t *testing.T) {
	tr := checkRecaptureIdentical(t, kepler.K20cDevice(), orderedProgram)
	if tr.Launches() != 2 {
		t.Fatalf("captured %d launches, want 2", tr.Launches())
	}
}

// TestRepeatRecordsOnlyIncreases: a Repeat at or below a launch's current
// count changes nothing, and the trace records only the ones that count.
func TestRepeatRecordsOnlyIncreases(t *testing.T) {
	tr := capture(func(g *GPU) {
		l := g.Launch("k", 8, 64, func(c *Ctx) { c.IntOps(1) })
		g.Repeat(l, 1)
		g.Repeat(l, 5)
		g.Repeat(l, 3)
	})
	want := capture(func(g *GPU) {
		g.Repeat(g.Launch("k", 8, 64, func(c *Ctx) { c.IntOps(1) }), 5)
	})
	if !bytes.Equal(encodeRaw(tr), encodeRaw(want)) {
		t.Error("non-increasing Repeat calls were recorded")
	}
	if d := mustReplay(t, tr, kepler.Default); d.Launches[0].Repeat != 5 {
		t.Errorf("priced repeat %d, want 5", d.Launches[0].Repeat)
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

	// A leading run of equal costs skips the heap a full round at a time:
	// whole and partial rounds, zero costs, more slots than blocks, a
	// single slot, and a negative run, which must not take the shortcut.
	runs := []struct {
		run, tail, slots int
		c                float64
	}{
		{1040, 100, 208, 3.5}, {1057, 0, 208, 0.1}, {208, 1, 208, 7},
		{50, 50, 13, 0}, {39, 0, 13, 0}, {40, 5, 13, math.Copysign(0, -1)},
		{5, 0, 13, 2}, {5, 3, 13, 2}, {100, 20, 1, 1.25}, {1, 30, 7, 9},
		{12, 12, 4, 1e-300}, {26, 30, 13, -1},
	}
	for _, r := range runs {
		costs := make([]float64, r.run, r.run+r.tail)
		for i := range costs {
			costs[i] = r.c
		}
		for i := 0; i < r.tail; i++ {
			switch rng.Intn(3) {
			case 0:
				costs = append(costs, float64(rng.Intn(3))) // ties and zeros
			case 1:
				costs = append(costs, r.c*float64(1+rng.Intn(2)))
			default:
				costs = append(costs, rng.ExpFloat64()*50)
			}
		}
		got := listSchedule(costs, r.slots)
		want := listScheduleLinear(costs, r.slots)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("run=%d of %v, tail=%d, slots=%d: heap makespan %v != linear %v",
				r.run, r.c, r.tail, r.slots, got, want)
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
	tr := capture(captureProgram)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Replay(kepler.Configs[i%len(kepler.Configs)]); err != nil {
			b.Fatal(err)
		}
	}
}
