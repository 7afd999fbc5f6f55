package sim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/kepler"
)

func TestAllocAlignmentAndCapacity(t *testing.T) {
	d := NewDevice(kepler.Default)
	a := d.Alloc(100)
	b := d.Alloc(1)
	if a%256 != 0 || b%256 != 0 {
		t.Errorf("allocations not 256-aligned: %d %d", a, b)
	}
	if b <= a {
		t.Error("bump allocator went backwards")
	}
}

func TestAllocECCCapacitySmaller(t *testing.T) {
	// Allocating just under the non-ECC capacity must panic under ECC.
	d := NewDevice(kepler.ECCDefault)
	defer func() {
		if recover() == nil {
			t.Error("expected out-of-memory panic under ECC")
		}
	}()
	d.Alloc(int64(float64(kepler.K20cDevice().DRAMBytes) * 0.95))
}

func TestArrayAt(t *testing.T) {
	d := NewDevice(kepler.Default)
	a := d.NewArray(10, 8)
	if a.At(3) != a.Base+24 {
		t.Errorf("At(3) = %d, want base+24", a.At(3))
	}
	// Clamped, not out of range.
	if a.At(99) != a.Base+72 || a.At(-1) != a.Base {
		t.Error("out-of-range index not clamped")
	}
}

func TestLaunchExecutesEveryThreadOnce(t *testing.T) {
	d := NewDevice(kepler.Default)
	seen := make([]int, 1000)
	d.Launch("count", 10, 100, func(c *Ctx) {
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
// blocks in a scrambled permutation of (kernel, seq) alone, the same at
// every clock configuration.
func TestLaunchBlockOrderIndependentOfConfig(t *testing.T) {
	order := func(clk kepler.Clocks) []int {
		d := NewDevice(clk)
		var got []int
		prev := -1
		d.LaunchOrdered("order", 64, 32, func(c *Ctx) {
			if c.Block != prev {
				got = append(got, c.Block)
				prev = c.Block
			}
			c.IntOps(1)
		})
		return got
	}
	want := order(kepler.Default)
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
	for _, clk := range kepler.Configs {
		if got := order(clk); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: block order %v differs from %s's %v", clk.Name, got, kepler.Default.Name, want)
		}
	}
}

func TestTimelineAdvances(t *testing.T) {
	d := NewDevice(kepler.Default)
	l1 := d.Launch("k1", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
	l2 := d.Launch("k2", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
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
	d := NewDevice(kepler.Default)
	l := d.Launch("k", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
	before := d.Now()
	d.Repeat(l, 10)
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
		d := NewDevice(clk)
		l := d.Launch("fma", 1024, 256, func(c *Ctx) { c.FP32Ops(500) })
		return l.Duration
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
		d := NewDevice(clk)
		src := d.NewArray(1<<22, 4)
		l := d.Launch("stream", 1<<14, 256, func(c *Ctx) {
			c.LoadRep(src.At(c.TID()), 4, 32)
		})
		return l.Duration
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

func TestECCSlowsMemoryBound(t *testing.T) {
	run := func(clk kepler.Clocks) float64 {
		d := NewDevice(clk)
		src := d.NewArray(1<<22, 4)
		l := d.Launch("stream", 1<<14, 256, func(c *Ctx) {
			c.LoadRep(src.At(c.TID()), 4, 32)
		})
		return l.Duration
	}
	slow := run(kepler.ECCDefault) / run(kepler.Default)
	if slow < 1.05 || slow > 1.15 {
		t.Errorf("ECC slowdown (coalesced) = %.3f, want ~1.125", slow)
	}
}

func TestECCBarelyAffectsComputeBound(t *testing.T) {
	run := func(clk kepler.Clocks) float64 {
		d := NewDevice(clk)
		l := d.Launch("fma", 1024, 256, func(c *Ctx) { c.FP32Ops(500) })
		return l.Duration
	}
	slow := run(kepler.ECCDefault) / run(kepler.Default)
	if slow > 1.01 {
		t.Errorf("ECC slowdown (compute) = %.4f, want ~1.0", slow)
	}
}

func TestUncoalescedSlowerThanCoalesced(t *testing.T) {
	d := NewDevice(kepler.Default)
	src := d.NewArray(1<<22, 4)
	co := d.Launch("coalesced", 1<<12, 256, func(c *Ctx) {
		c.LoadRep(src.At(c.TID()), 4, 16)
	})
	un := d.Launch("scattered", 1<<12, 256, func(c *Ctx) {
		h := uint64(c.TID()) * 2654435761 % (1 << 22)
		for k := 0; k < 16; k++ {
			c.Load(src.At(int(h)), 4)
			h = (h*6364136223846793005 + 1442695040888963407) % (1 << 22)
		}
	})
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
	d := NewDevice(kepler.Default)
	for _, shape := range [][2]int{{0, 32}, {1, 0}, {1, 2048}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("launch %v should panic", shape)
				}
			}()
			d.Launch("bad", shape[0], shape[1], func(c *Ctx) {})
		}()
	}
}

func TestCtxIdentifiers(t *testing.T) {
	d := NewDevice(kepler.Default)
	ok := true
	d.Launch("ids", 2, 64, func(c *Ctx) {
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
		d := NewDevice(kepler.Default)
		d.SetTimeScale(scale)
		return d.Launch("fma", 256, 256, func(c *Ctx) { c.FP32Ops(200) })
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
	d := NewDevice(kepler.Default)
	d.SetTimeScale(0.1)
	if d.TimeScale() != 1 {
		t.Error("time scale not clamped to >= 1")
	}
}

func TestRepeatMidTimelineShiftsFollowers(t *testing.T) {
	d := NewDevice(kepler.Default)
	l1 := d.Launch("a", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
	l2 := d.Launch("b", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
	d.Repeat(l1, 5)
	if l2.Start < l1.Start+l1.TotalDuration() {
		t.Errorf("follower start %g overlaps repeated launch ending %g",
			l2.Start, l1.Start+l1.TotalDuration())
	}
}

func TestHostPause(t *testing.T) {
	d := NewDevice(kepler.Default)
	d.Launch("k", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
	before := d.Now()
	d.HostPause(0.5)
	if math.Abs(d.Now()-before-0.5) > 1e-12 {
		t.Errorf("clock after pause = %g, want %g", d.Now(), before+0.5)
	}
	if len(d.Gaps) == 0 {
		t.Fatal("pause not recorded as a gap")
	}
	d.HostPause(-1) // ignored
	if math.Abs(d.Now()-before-0.5) > 1e-12 {
		t.Error("negative pause changed the clock")
	}
}

func TestSharedMemoryLimitsOccupancy(t *testing.T) {
	d := NewDevice(kepler.Default)
	small := d.LaunchShared("s", 256, 256, 1024, func(c *Ctx) { c.FP32Ops(100) })
	big := d.LaunchShared("b", 256, 256, 40*1024, func(c *Ctx) { c.FP32Ops(100) })
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
	d := NewDevice(kepler.Default)
	d.SetTimeScale(10)
	l := d.Launch("k", 64, 256, func(c *Ctx) { c.FP32Ops(100) })
	one := l.Duration
	d.Repeat(l, 4)
	if math.Abs(l.TotalDuration()-4*one) > 1e-12 {
		t.Errorf("total = %g, want %g", l.TotalDuration(), 4*one)
	}
	if math.Abs(d.ActiveTime()-4*one) > 1e-12 {
		t.Error("active time mismatch")
	}
}

func TestBiggerBoardIsFaster(t *testing.T) {
	run := func(clk kepler.Clocks) float64 {
		d := NewDevice(clk)
		l := d.Launch("fma", 2048, 256, func(c *Ctx) { c.FP32Ops(400) })
		return l.Duration
	}
	k20c := run(kepler.Default)
	k40 := run(kepler.Models[3].Configurations()[0])
	if k40 >= k20c {
		t.Errorf("K40 (%g s) not faster than K20c (%g s)", k40, k20c)
	}
}
