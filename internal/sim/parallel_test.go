package sim

import (
	"context"
	"sync"
	"testing"

	"repro/internal/kepler"
)

// launchBench builds a mid-size kernel with mixed op classes whose threads
// write disjoint slice elements — the canonical parallel-safe shape.
func launchBench(g *GPU, ordered bool, grid, block int) {
	data := g.NewArray(grid*block, 4)
	out := make([]float64, grid*block)
	fn := func(c *Ctx) {
		i := c.TID()
		out[i] = float64(i) * 1.5
		c.Load(data.At(i), 4)
		c.FP32Ops(32 + i%7)
		c.IntOps(8)
		if i%3 == 0 {
			c.SFUOps(2)
		}
		c.SharedAccessRep(uint64(c.Thread*4), 3)
		c.SyncThreads()
		c.Store(data.At(i), 4)
	}
	if ordered {
		g.LaunchOrdered("par", grid, block, fn)
	} else {
		g.Launch("par", grid, block, fn)
	}
}

// TestParallelMatchesOrderedStats is the determinism contract end to end:
// for an order-independent kernel, the sharded parallel path must produce a
// Launch record bit-identical to the sequential ordered path — same stats,
// same duration — at every clock configuration.
func TestParallelMatchesOrderedStats(t *testing.T) {
	gSeq := NewGPU(kepler.K20cDevice())
	gSeq.SetWorkerPool(nil) // force the inline path
	launchBench(gSeq, true, 512, 256)

	gPar := NewGPU(kepler.K20cDevice())
	gPar.SetWorkerPool(NewWorkerPool(8))
	launchBench(gPar, false, 512, 256)

	for _, clk := range kepler.Configs {
		lSeq := mustReplay(t, gSeq.Trace(), clk).Launches[0]
		lPar := mustReplay(t, gPar.Trace(), clk).Launches[0]

		if lSeq.Stats != lPar.Stats {
			t.Errorf("%s: stats differ:\nordered %+v\nparallel %+v", clk.Name, lSeq.Stats, lPar.Stats)
		}
		if lSeq.Duration != lPar.Duration || lSeq.TCore != lPar.TCore || lSeq.TMem != lPar.TMem {
			t.Errorf("%s: timing differs: %v/%v/%v vs %v/%v/%v", clk.Name,
				lSeq.Duration, lSeq.TCore, lSeq.TMem, lPar.Duration, lPar.TCore, lPar.TMem)
		}
	}
}

// TestParallelWorkerCountInvariance runs the same unordered launch under
// several worker budgets; every Launch record must be bit-identical.
func TestParallelWorkerCountInvariance(t *testing.T) {
	var ref *Launch
	for _, workers := range []int{1, 2, 3, 5, 16} {
		g := NewGPU(kepler.K20cDevice())
		g.SetWorkerPool(NewWorkerPool(workers))
		launchBench(g, false, 384, 128)
		l := mustReplay(t, g.Trace(), kepler.Default).Launches[0]
		if ref == nil {
			ref = l
			continue
		}
		if l.Stats != ref.Stats || l.Duration != ref.Duration {
			t.Fatalf("workers=%d changed the launch record", workers)
		}
	}
}

// TestParallelGoEffects checks that the kernel's real computation lands
// fully regardless of sharding: every thread's disjoint write happens
// exactly once.
func TestParallelGoEffects(t *testing.T) {
	g := NewGPU(kepler.K20cDevice())
	g.SetWorkerPool(NewWorkerPool(8))
	const grid, block = 256, 64
	counts := make([]int32, grid*block)
	g.Launch("effects", grid, block, func(c *Ctx) {
		counts[c.TID()]++
		c.IntOps(1)
	})
	for tid, n := range counts {
		if n != 1 {
			t.Fatalf("thread %d executed %d times", tid, n)
		}
	}
}

// TestParallelLaunchRaceStress drives many concurrent GPUs, each sharding
// large-grid launches across a shared pool, with threads writing disjoint
// elements of shared slices. It exists for the CI -race job: a kernel
// misclassified as unordered, or engine state leaking between workers, shows
// up here as a detected race.
func TestParallelLaunchRaceStress(t *testing.T) {
	pool := NewWorkerPool(8)
	var wg sync.WaitGroup
	for dev := 0; dev < 4; dev++ {
		wg.Add(1)
		go func(devID int) {
			defer wg.Done()
			g := NewGPU(kepler.Models[devID%len(kepler.Models)])
			g.SetWorkerPool(pool)
			data := g.NewArray(1<<16, 4)
			acc := make([]int64, 1<<16)
			for rep := 0; rep < 3; rep++ {
				g.Launch("stress", 256, 256, func(c *Ctx) {
					i := c.TID()
					acc[i] += int64(i + rep)
					c.Load(data.At(i), 4)
					c.FP32Ops(16)
					c.Store(data.At(i), 4)
				})
			}
			for i, v := range acc {
				if v != 3*int64(i)+3 {
					t.Errorf("device %d: acc[%d] = %d", devID, i, v)
					return
				}
			}
		}(dev)
	}
	wg.Wait()
}

// TestWorkerPoolAccounting exercises the Acquire/TryAcquire/Release protocol.
func TestWorkerPoolAccounting(t *testing.T) {
	p := NewWorkerPool(3)
	if p.Budget() != 3 {
		t.Fatalf("budget = %d", p.Budget())
	}
	if err := p.Acquire(context.Background()); err != nil { // 1 in use
		t.Fatal(err)
	}
	if got := p.TryAcquire(5); got != 2 {
		t.Errorf("TryAcquire(5) = %d, want 2 (pool saturated after)", got)
	}
	if got := p.TryAcquire(1); got != 0 {
		t.Errorf("TryAcquire on saturated pool = %d, want 0", got)
	}
	p.Release(2)
	if got := p.TryAcquire(2); got != 2 {
		t.Errorf("TryAcquire after release = %d, want 2", got)
	}
	p.Release(3) // all slots back
	done := make(chan struct{})
	go func() {
		if err := p.Acquire(context.Background()); err != nil { // must not block: slots free
			t.Error(err)
		}
		p.Release(1)
		close(done)
	}()
	<-done
	if NewWorkerPool(0).Budget() != 1 {
		t.Error("pool size not clamped to >= 1")
	}
}

// TestSmallLaunchStaysInline confirms the thresholds: tiny launches never
// request workers (they would lose more to traffic than they gain).
func TestSmallLaunchStaysInline(t *testing.T) {
	p := NewWorkerPool(4)
	g := NewGPU(kepler.K20cDevice())
	g.SetWorkerPool(p)
	// grid*block below minShardThreads: the pool must stay untouched, which
	// we observe by saturating it first — TryAcquire(0 free) is fine — and
	// instead simply by the launch not deadlocking and producing 1-exec
	// semantics.
	seen := make([]int32, 2*64)
	g.Launch("tiny", 2, 64, func(c *Ctx) {
		seen[c.TID()]++
		c.IntOps(1)
	})
	for tid, n := range seen {
		if n != 1 {
			t.Fatalf("thread %d executed %d times", tid, n)
		}
	}
	if got := p.TryAcquire(4); got != 4 {
		t.Fatalf("pool slots leaked: only %d of 4 free", got)
	}
	p.Release(4)
}

// FuzzScheduleParams fuzzes the block-permutation parameters: for any seed
// and grid, the stride must be coprime to the grid, the offset in range, and
// the resulting arithmetic progression must visit every block exactly once.
func FuzzScheduleParams(f *testing.F) {
	f.Add(uint64(0), uint16(0))
	f.Add(uint64(1), uint16(1))
	f.Add(uint64(0xdeadbeefcafef00d), uint16(511))
	f.Add(uint64(1)<<63, uint16(65535))
	f.Fuzz(func(t *testing.T, seed uint64, gridRaw uint16) {
		grid := int(gridRaw) + 1
		stride, offset := scheduleParams(seed, grid)
		if stride < 1 || stride > grid && grid > 1 {
			t.Fatalf("stride %d out of range for grid %d", stride, grid)
		}
		if gcd(stride, grid) != 1 {
			t.Fatalf("stride %d not coprime to grid %d", stride, grid)
		}
		if offset < 0 || offset >= grid {
			t.Fatalf("offset %d out of [0,%d)", offset, grid)
		}
		seen := make([]bool, grid)
		b := offset
		for i := 0; i < grid; i++ {
			if seen[b] {
				t.Fatalf("block %d visited twice (seed %d grid %d)", b, seed, grid)
			}
			seen[b] = true
			b += stride
			if b >= grid {
				b -= grid
			}
		}
	})
}
