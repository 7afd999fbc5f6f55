package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/kepler"
)

func TestAllocAlignmentAndCapacity(t *testing.T) {
	g := NewGPU(kepler.K20cDevice())
	a := g.Alloc(100)
	b := g.Alloc(1)
	if a%256 != 0 || b%256 != 0 {
		t.Errorf("allocations not 256-aligned: %d %d", a, b)
	}
	if b <= a {
		t.Error("bump allocator went backwards")
	}
}

// TestAllocECCCapacitySmaller: ECC takes capacity off every device, and a
// GPU checks allocations against the memory every configuration keeps, so a
// footprint that fits with ECC off but not with ECC on is refused, on every device, whatever
// configuration the run is later priced at.
func TestAllocECCCapacitySmaller(t *testing.T) {
	for _, desc := range kepler.Profiles() {
		var eccOn, eccOff int64
		for _, clk := range desc.Configurations() {
			if clk.ECC {
				eccOn = clk.UsableDRAM()
			} else {
				eccOff = clk.UsableDRAM()
			}
		}
		if eccOn >= eccOff {
			t.Fatalf("%s: ECC-on capacity %d not below ECC-off %d", desc.Name, eccOn, eccOff)
		}
		// The whole ECC-on capacity fits: the footprint starts at 4096,
		// so ask for the rest.
		NewGPU(desc).Alloc(eccOn - 4096)
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "out of device memory") {
					t.Errorf("%s: allocation between the ECC-on and ECC-off capacity: recovered %v, want an out-of-device-memory panic", desc.Name, r)
				}
			}()
			NewGPU(desc).Alloc((eccOn + eccOff) / 2)
		}()
	}
}

func TestArrayAt(t *testing.T) {
	a := NewGPU(kepler.K20cDevice()).NewArray(10, 8)
	if a.At(3) != a.Base+24 {
		t.Errorf("At(3) = %d, want base+24", a.At(3))
	}
	// Clamped, not out of range.
	if a.At(99) != a.Base+72 || a.At(-1) != a.Base {
		t.Error("out-of-range index not clamped")
	}
}

func TestLaunchExecutesEveryThreadOnce(t *testing.T) {
	g := NewGPU(kepler.K20cDevice())
	seen := make([]int, 1000)
	g.Launch("count", 10, 100, func(c *Ctx) {
		seen[c.TID()]++
		c.IntOps(1)
	})
	for tid, n := range seen {
		if n != 1 {
			t.Fatalf("thread %d executed %d times", tid, n)
		}
	}
}

// TestLaunchBlockOrderIndependentOfConfig: an ordered launch visits its
// blocks in a scrambled permutation of (kernel, seq) alone, the same on
// every GPU of every device profile.
func TestLaunchBlockOrderIndependentOfConfig(t *testing.T) {
	order := func(desc *kepler.Device) []int {
		g := NewGPU(desc)
		var got []int
		prev := -1
		g.LaunchOrdered("order", 64, 32, func(c *Ctx) {
			if c.Block != prev {
				got = append(got, c.Block)
				prev = c.Block
			}
			c.IntOps(1)
		})
		return got
	}
	want := order(kepler.K20cDevice())
	if len(want) != 64 {
		t.Fatalf("blocks seen: %d, want 64", len(want))
	}
	seen := make([]bool, 64)
	identity := true
	for i, b := range want {
		seen[b] = true
		identity = identity && b == i
	}
	for b, ok := range seen {
		if !ok {
			t.Fatalf("block %d never ran", b)
		}
	}
	if identity {
		t.Error("ordered launch ran its blocks in id order; want a scrambled permutation")
	}
	for _, desc := range kepler.Profiles() {
		if got := order(desc); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: block order %v differs from the K20c's %v", desc.Name, got, want)
		}
	}
}

func TestTimelineAdvances(t *testing.T) {
	d := simulate(t, kepler.Default, func(g *GPU) {
		g.Launch("k1", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
		g.Launch("k2", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
	})
	l1, l2 := d.Launches[0], d.Launches[1]
	if l1.Duration <= 0 || l2.Duration <= 0 {
		t.Fatal("zero duration")
	}
	if l2.Start < l1.Start+l1.Duration {
		t.Error("launches overlap on the timeline")
	}
	if len(d.Gaps) != 1 {
		t.Errorf("gaps = %d, want 1", len(d.Gaps))
	}
	if d.Now() < l2.Start+l2.Duration {
		t.Error("clock behind last launch")
	}
}

func TestRepeatExtendsClock(t *testing.T) {
	k := func(g *GPU) LaunchID { return g.Launch("k", 64, 256, func(c *Ctx) { c.FP32Ops(100) }) }
	before := simulate(t, kepler.Default, func(g *GPU) { k(g) }).Now()
	d := simulate(t, kepler.Default, func(g *GPU) { g.Repeat(k(g), 10) })
	l := d.Launches[0]
	if l.Repeat != 10 {
		t.Errorf("repeat = %d", l.Repeat)
	}
	want := before + 9*l.Duration
	if math.Abs(d.Now()-want) > 1e-12 {
		t.Errorf("clock = %g, want %g", d.Now(), want)
	}
	if math.Abs(d.ActiveTime()-10*l.Duration) > 1e-12 {
		t.Error("ActiveTime does not account for repeats")
	}
}

func TestComputeKernelScalesWithCoreClock(t *testing.T) {
	run := func(clk kepler.Clocks) float64 {
		return simulate(t, clk, func(g *GPU) {
			g.Launch("fma", 1024, 256, func(c *Ctx) { c.FP32Ops(500) })
		}).Launches[0].Duration
	}
	tDef := run(kepler.Default)
	t614 := run(kepler.F614)
	ratio := t614 / tDef
	want := 705.0 / 614.0
	if math.Abs(ratio-want) > 0.03 {
		t.Errorf("compute-bound 614/default = %.3f, want ~%.3f", ratio, want)
	}
}

func TestMemoryKernelInsensitiveToCoreClock(t *testing.T) {
	run := func(clk kepler.Clocks) float64 {
		return simulate(t, clk, streamProgram).Launches[0].Duration
	}
	tDef := run(kepler.Default)
	t614 := run(kepler.F614)
	if r := t614 / tDef; r > 1.05 {
		t.Errorf("memory-bound 614/default = %.3f, want ~1.0", r)
	}
	t324 := run(kepler.F324)
	if r := t324 / t614; r < 6.0 {
		t.Errorf("memory-bound 324/614 = %.3f, want ~8", r)
	}
}

// TestECCSlowsMemoryBound: ECC costs a coalesced stream about its 12.5%
// bandwidth loss, and a scattered gather more — the mechanism behind
// Lonestar's outsized ECC cost.
func TestECCSlowsMemoryBound(t *testing.T) {
	run := func(clk kepler.Clocks) float64 {
		return simulate(t, clk, streamProgram).Launches[0].Duration
	}
	slow := run(kepler.ECCDefault) / run(kepler.Default)
	if slow < 1.05 || slow > 1.15 {
		t.Errorf("ECC slowdown (coalesced) = %.3f, want ~1.125", slow)
	}
	gather := func(clk kepler.Clocks) float64 {
		return simulate(t, clk, func(g *GPU) {
			src := g.NewArray(1<<20, 4)
			g.Launch("gather", 1<<12, 256, func(c *Ctx) {
				h := uint64(c.TID()) * 2654435761 % (1 << 20)
				for k := 0; k < 8; k++ {
					c.Load(src.At(int(h)), 4)
					h = (h*6364136223846793005 + 12345) % (1 << 20)
				}
			})
		}).Launches[0].Duration
	}
	scattered := gather(kepler.ECCDefault) / gather(kepler.Default)
	t.Logf("ECC slowdown: coalesced %.3f, scattered %.3f", slow, scattered)
	if scattered <= slow {
		t.Errorf("ECC slowdown (scattered) = %.3f, want above the coalesced %.3f", scattered, slow)
	}
}

// TestRaggedLoopCostsLongestLane: a warp whose lanes run 2..64 loop trips
// costs about its longest lane (masked execution), not the sum of its
// lanes' trips (~8x for this spread), which a path-serialized model would
// charge.
func TestRaggedLoopCostsLongestLane(t *testing.T) {
	run := func(ragged bool) float64 {
		return simulate(t, kepler.Default, func(g *GPU) {
			g.Launch("loop", 512, 256, func(c *Ctx) {
				n := 64
				if ragged {
					n = 2 + (c.TID()%32)*62/31
				}
				c.IntOps(n)
			})
		}).Launches[0].Duration
	}
	r := run(true) / run(false)
	t.Logf("ragged/uniform launch duration = %.3f", r)
	if r > 1.5 {
		t.Errorf("ragged loops cost %.3fx the uniform ones; masked-lane costing broken", r)
	}
}

func TestECCBarelyAffectsComputeBound(t *testing.T) {
	run := func(clk kepler.Clocks) float64 {
		return simulate(t, clk, func(g *GPU) {
			g.Launch("fma", 1024, 256, func(c *Ctx) { c.FP32Ops(500) })
		}).Launches[0].Duration
	}
	slow := run(kepler.ECCDefault) / run(kepler.Default)
	if slow > 1.01 {
		t.Errorf("ECC slowdown (compute) = %.4f, want ~1.0", slow)
	}
}

func TestUncoalescedSlowerThanCoalesced(t *testing.T) {
	d := simulate(t, kepler.Default, func(g *GPU) {
		src := g.NewArray(1<<22, 4)
		g.Launch("coalesced", 1<<12, 256, func(c *Ctx) {
			c.LoadRep(src.At(c.TID()), 4, 16)
		})
		g.Launch("scattered", 1<<12, 256, func(c *Ctx) {
			h := uint64(c.TID()) * 2654435761 % (1 << 22)
			for k := 0; k < 16; k++ {
				c.Load(src.At(int(h)), 4)
				h = (h*6364136223846793005 + 1442695040888963407) % (1 << 22)
			}
		})
	})
	co, un := d.Launches[0], d.Launches[1]
	if un.Duration < 4*co.Duration {
		t.Errorf("scattered %.3gs vs coalesced %.3gs: want >= 4x slower", un.Duration, co.Duration)
	}
}

func TestListSchedule(t *testing.T) {
	if m := listSchedule([]float64{5, 1, 1, 1}, 2); m != 5 {
		t.Errorf("makespan = %f, want 5", m)
	}
	if m := listSchedule([]float64{1, 1, 1, 1}, 2); m != 2 {
		t.Errorf("makespan = %f, want 2", m)
	}
	if m := listSchedule(nil, 4); m != 0 {
		t.Errorf("empty makespan = %f", m)
	}
}

func TestScheduleParamsPermutation(t *testing.T) {
	f := func(seed uint64, gridRaw uint16) bool {
		grid := int(gridRaw)%500 + 1
		stride, offset := scheduleParams(seed, grid)
		seen := make([]bool, grid)
		b := offset
		for i := 0; i < grid; i++ {
			if b < 0 || b >= grid || seen[b] {
				return false
			}
			seen[b] = true
			b += stride
			if b >= grid {
				b -= grid
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLaunchPanicsOnBadShape(t *testing.T) {
	g := NewGPU(kepler.K20cDevice())
	for _, shape := range [][2]int{{0, 32}, {1, 0}, {1, 2048}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("launch %v should panic", shape)
				}
			}()
			g.Launch("bad", shape[0], shape[1], func(c *Ctx) {})
		}()
	}
}

func TestCtxIdentifiers(t *testing.T) {
	g := NewGPU(kepler.K20cDevice())
	ok := true
	g.Launch("ids", 2, 64, func(c *Ctx) {
		if c.TID() != c.Block*64+c.Thread {
			ok = false
		}
		if c.Lane() != c.Thread%32 || c.Warp() != c.Thread/32 {
			ok = false
		}
		c.IntOps(1)
	})
	if !ok {
		t.Error("ctx identifiers inconsistent")
	}
}

func TestTimeScale(t *testing.T) {
	run := func(scale float64) *Launch {
		return simulate(t, kepler.Default, func(g *GPU) {
			g.SetTimeScale(scale)
			g.Launch("fma", 256, 256, func(c *Ctx) { c.FP32Ops(200) })
		}).Launches[0]
	}
	l1 := run(1)
	l50 := run(50)
	if math.Abs(l50.Duration/l1.Duration-50) > 0.01 {
		t.Errorf("scaled duration ratio = %f, want 50", l50.Duration/l1.Duration)
	}
	if l50.Scale != 50 {
		t.Errorf("launch scale = %f", l50.Scale)
	}
	// Clamped below 1.
	if l := run(0.1); l.Scale != 1 || l.Duration != l1.Duration {
		t.Errorf("time scale 0.1 gave launch scale %f, duration %g: not clamped to 1", l.Scale, l.Duration)
	}
}

func TestRepeatMidTimelineShiftsFollowers(t *testing.T) {
	d := simulate(t, kepler.Default, func(g *GPU) {
		a := g.Launch("a", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
		g.Launch("b", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
		g.Repeat(a, 5)
	})
	l1, l2 := d.Launches[0], d.Launches[1]
	if l2.Start < l1.Start+l1.TotalDuration() {
		t.Errorf("follower start %g overlaps repeated launch ending %g",
			l2.Start, l1.Start+l1.TotalDuration())
	}
}

func TestHostPause(t *testing.T) {
	k := func(g *GPU) { g.Launch("k", 64, 256, func(c *Ctx) { c.FP32Ops(100) }) }
	before := simulate(t, kepler.Default, k).Now()
	d := simulate(t, kepler.Default, func(g *GPU) { k(g); g.HostPause(0.5) })
	if math.Abs(d.Now()-before-0.5) > 1e-12 {
		t.Errorf("clock after pause = %g, want %g", d.Now(), before+0.5)
	}
	if len(d.Gaps) == 0 {
		t.Fatal("pause not recorded as a gap")
	}
	// Non-positive pauses are ignored.
	d = simulate(t, kepler.Default, func(g *GPU) { k(g); g.HostPause(0.5); g.HostPause(-1); g.HostPause(0) })
	if math.Abs(d.Now()-before-0.5) > 1e-12 {
		t.Error("non-positive pause changed the clock")
	}
}

func TestSharedMemoryLimitsOccupancy(t *testing.T) {
	d := simulate(t, kepler.Default, func(g *GPU) {
		g.LaunchShared("s", 256, 256, 1024, func(c *Ctx) { c.FP32Ops(100) })
		g.LaunchShared("b", 256, 256, 40*1024, func(c *Ctx) { c.FP32Ops(100) })
	})
	small, big := d.Launches[0], d.Launches[1]
	if big.Occ.BlocksPerSM >= small.Occ.BlocksPerSM {
		t.Errorf("shared memory did not limit occupancy: %d vs %d",
			big.Occ.BlocksPerSM, small.Occ.BlocksPerSM)
	}
	// Lower occupancy means worse latency hiding: the big-shared kernel
	// must not be faster.
	if big.Duration < small.Duration {
		t.Errorf("lower occupancy ran faster: %g vs %g", big.Duration, small.Duration)
	}
}

func TestRepeatWithTimeScale(t *testing.T) {
	k := func(g *GPU) LaunchID {
		g.SetTimeScale(10)
		return g.Launch("k", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
	}
	one := simulate(t, kepler.Default, func(g *GPU) { k(g) }).Launches[0].Duration
	d := simulate(t, kepler.Default, func(g *GPU) { g.Repeat(k(g), 4) })
	l := d.Launches[0]
	if math.Abs(l.TotalDuration()-4*one) > 1e-12 {
		t.Errorf("total = %g, want %g", l.TotalDuration(), 4*one)
	}
	if math.Abs(d.ActiveTime()-4*one) > 1e-12 {
		t.Error("active time mismatch")
	}
}

func TestBiggerBoardIsFaster(t *testing.T) {
	run := func(clk kepler.Clocks) float64 {
		return simulate(t, clk, func(g *GPU) {
			g.Launch("fma", 2048, 256, func(c *Ctx) { c.FP32Ops(400) })
		}).Launches[0].Duration
	}
	k20c := run(kepler.Default)
	k40 := run(kepler.Models[3].Configurations()[0])
	if k40 >= k20c {
		t.Errorf("K40 (%g s) not faster than K20c (%g s)", k40, k20c)
	}
}

// simulate runs prog on a fresh GPU of clk's device and prices the run at
// clk.
func simulate(t testing.TB, clk kepler.Clocks, prog func(*GPU)) *Device {
	t.Helper()
	g := NewGPU(clk.Device())
	prog(g)
	return mustReplay(t, g.Trace(), clk)
}

// streamProgram is one coalesced, memory-bound streaming launch.
func streamProgram(g *GPU) {
	src := g.NewArray(1<<22, 4)
	g.Launch("stream", 1<<14, 256, func(c *Ctx) {
		c.LoadRep(src.At(c.TID()), 4, 32)
	})
}

// TestRepeatOfUnknownLaunchPanics: Repeat takes only the ID of a launch the
// run has made.
func TestRepeatOfUnknownLaunchPanics(t *testing.T) {
	g := NewGPU(kepler.K20cDevice())
	id := g.Launch("k", 8, 32, func(c *Ctx) { c.IntOps(1) })
	for _, bad := range []LaunchID{-1, id + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Repeat(%d, 2) after one launch did not panic", bad)
				}
			}()
			g.Repeat(bad, 2)
		}()
	}
}

// TestProgramHandleIsClockFree: nothing a program can call on its GPU
// returns simulated time, a clock configuration or a priced launch, so no
// program can branch on the configuration its run is priced at.
func TestProgramHandleIsClockFree(t *testing.T) {
	forbidden := []reflect.Type{
		reflect.TypeOf(float64(0)),
		reflect.TypeOf(kepler.Clocks{}),
		reflect.TypeOf((*Launch)(nil)),
		reflect.TypeOf((*Device)(nil)),
	}
	gpu := reflect.TypeOf((*GPU)(nil))
	if gpu.NumMethod() == 0 {
		t.Fatal("GPU has no methods")
	}
	for i := 0; i < gpu.NumMethod(); i++ {
		m := gpu.Method(i)
		for o := 0; o < m.Type.NumOut(); o++ {
			for _, f := range forbidden {
				if m.Type.Out(o) == f {
					t.Errorf("GPU.%s returns %s", m.Name, f)
				}
			}
		}
	}
}
