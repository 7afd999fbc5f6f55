package sim

import (
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// LaunchSpec describes the shape of a kernel launch.
type LaunchSpec struct {
	Name           string
	Grid           int // number of thread blocks
	Block          int // threads per block
	SharedPerBlock int // shared-memory bytes per block

	// Ordered declares that the kernel's Go-side effects depend on the
	// order in which thread blocks execute: shared accumulators, worklist
	// appends, in-place relaxations visible mid-launch, and similar
	// self-scheduling idioms of the irregular codes. Ordered kernels run
	// their blocks sequentially in a deterministic permutation of the
	// kernel name and launch sequence number (launchSeed), the same at
	// every clock configuration. Unordered kernels — whose
	// threads touch disjoint Go state — may have their blocks sharded
	// across a worker pool; results are bit-identical either way.
	Ordered bool
}

// Launch executes a kernel of grid x block threads and returns its ID.
// The kernel function performs the real computation and records hardware
// operations through the Ctx. Blocks of an unordered launch may be simulated
// concurrently, so fn must not mutate Go state shared between threads of
// different blocks (threads writing disjoint slice elements is the common
// safe pattern); kernels that need the sequential block schedule declare it
// via LaunchOrdered. Within a block, warps run in order and the 32 lanes of
// a warp run lane 0 first.
func (g *GPU) Launch(name string, grid, block int, fn ThreadFunc) LaunchID {
	return g.LaunchSpec(LaunchSpec{Name: name, Grid: grid, Block: block}, fn)
}

// LaunchShared is Launch with a shared-memory allocation per block.
func (g *GPU) LaunchShared(name string, grid, block, sharedPerBlock int, fn ThreadFunc) LaunchID {
	return g.LaunchSpec(LaunchSpec{Name: name, Grid: grid, Block: block, SharedPerBlock: sharedPerBlock}, fn)
}

// LaunchOrdered executes a kernel whose Go-side effects are block-order
// dependent: blocks run sequentially in a deterministic permutation of the
// kernel name and launch sequence number (launchSeed), the same at every
// clock configuration. Irregular kernels that self-schedule through shared
// state belong here.
func (g *GPU) LaunchOrdered(name string, grid, block int, fn ThreadFunc) LaunchID {
	return g.LaunchSpec(LaunchSpec{Name: name, Grid: grid, Block: block, Ordered: true}, fn)
}

// LaunchSharedOrdered is LaunchOrdered with a shared-memory allocation per
// block.
func (g *GPU) LaunchSharedOrdered(name string, grid, block, sharedPerBlock int, fn ThreadFunc) LaunchID {
	return g.LaunchSpec(LaunchSpec{Name: name, Grid: grid, Block: block, SharedPerBlock: sharedPerBlock, Ordered: true}, fn)
}

// LaunchSpec executes a kernel described by spec and records it in the
// run's trace.
//
// Determinism contract: the recorded launch is bit-identical no matter how
// many workers simulate the blocks, because (a) every KernelStats field is
// an int64 counter, so merging per-worker partials is exactly associative
// and commutative; (b) per-block issue cycles are stored indexed by block
// id, so the timing model never observes completion order; and (c) partials
// are folded in ascending worker index (trace.MergePartials), fixing the
// reduction order by construction.
func (g *GPU) LaunchSpec(spec LaunchSpec, fn ThreadFunc) LaunchID {
	if spec.Grid <= 0 || spec.Block <= 0 {
		panic("sim: launch with empty grid or block")
	}
	g.checkCanceled()
	if spec.Block > g.desc.MaxThreadsPerBlock {
		panic("sim: block size exceeds device limit")
	}

	seq := len(g.repeats)
	occ := g.desc.ComputeOccupancy(spec.Block, spec.SharedPerBlock)

	if cap(g.blockCycles) < spec.Grid {
		g.blockCycles = make([]float64, spec.Grid)
	}
	blockCycles := g.blockCycles[:spec.Grid]

	if g.exec == nil {
		g.exec = newBlockExecutor()
	}
	cl := &CapturedLaunch{Spec: spec, Occ: occ, BlockCycles: blockCycles}
	if spec.Ordered {
		g.runOrdered(spec, fn, launchSeed(spec.Name, seq), blockCycles, &cl.Stats)
	} else {
		g.runSharded(spec, fn, blockCycles, &cl.Stats)
	}
	// The block schedule is clock-independent: derive it once here, and
	// every replay prices the same value.
	cl.sched = blockSchedule(g.desc.SMs, occ, blockCycles)
	cl.Scale = g.timeScale
	g.trace.recordLaunch(cl)
	g.repeats = append(g.repeats, 1)
	return LaunchID(seq)
}

// runOrdered simulates the blocks sequentially on the caller, visiting them
// in the seed-derived permutation. This is the path order-dependent kernels
// take; it is byte-for-byte the pre-parallel engine.
func (g *GPU) runOrdered(spec LaunchSpec, fn ThreadFunc, seed uint64, blockCycles []float64, stats *trace.KernelStats) {
	stride, offset := scheduleParams(seed, spec.Grid)
	b := offset
	for i := 0; i < spec.Grid; i++ {
		g.checkCanceled()
		bs := g.exec.runBlock(spec, fn, b)
		blockCycles[b] = issueCycles(g.desc, &bs)
		stats.Add(&bs)

		b += stride
		if b >= spec.Grid {
			b -= spec.Grid
		}
	}
}

// Parallelization thresholds: launches below them are simulated inline on
// the caller — sharding a handful of blocks costs more in goroutine and
// pool traffic than it saves.
const (
	minShardBlocks  = 4
	minShardThreads = 2048
	// minBlocksPerWorker keeps each worker busy with at least a few blocks
	// so the per-worker setup amortizes.
	minBlocksPerWorker = 2
)

// runSharded simulates the blocks of an unordered launch, sharded across
// extra workers from the GPU's pool when any are free. Workers pull
// block ids from an atomic counter (dynamic load balancing — irregular
// kernels have heavily imbalanced blocks); each accumulates a private
// partial KernelStats, and the partials are merged in worker-index order.
func (g *GPU) runSharded(spec LaunchSpec, fn ThreadFunc, blockCycles []float64, stats *trace.KernelStats) {
	extra := 0
	if pool := g.pool; pool != nil && spec.Grid >= minShardBlocks && spec.Grid*spec.Block >= minShardThreads {
		want := spec.Grid / minBlocksPerWorker
		if b := pool.Budget(); want > b {
			want = b
		}
		// The caller is worker 0; ask the pool only for the rest.
		extra = pool.TryAcquire(want - 1)
		if extra > 0 {
			defer pool.Release(extra)
		}
	}

	if extra == 0 {
		// Inline: ascending block id on the caller's executor. Unordered
		// kernels never observe the schedule permutation, so worker
		// availability cannot change what fn computes.
		for b := 0; b < spec.Grid; b++ {
			g.checkCanceled()
			bs := g.exec.runBlock(spec, fn, b)
			blockCycles[b] = issueCycles(g.desc, &bs)
			stats.Add(&bs)
		}
		return
	}

	var next atomic.Int64
	partials := make([]trace.KernelStats, extra+1)
	work := func(w int, e *blockExecutor) {
		for {
			// Workers poll the context per block and simply stop pulling
			// work when it fires; the caller turns the abort into a
			// cancellation panic after every worker has parked, so no
			// goroutine unwinds on its own.
			if g.ctx.Err() != nil {
				return
			}
			b := int(next.Add(1)) - 1
			if b >= spec.Grid {
				return
			}
			bs := e.runBlock(spec, fn, b)
			blockCycles[b] = issueCycles(g.desc, &bs)
			partials[w].Add(&bs)
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for w := 1; w <= extra; w++ {
		go func(w int) {
			defer wg.Done()
			e := executorPool.Get().(*blockExecutor)
			defer putExecutor(e)
			work(w, e)
		}(w)
	}
	work(0, g.exec)
	wg.Wait()
	g.checkCanceled()
	trace.MergePartials(stats, partials)
}

// scheduleParams derives a block-visit permutation (b = offset + i*stride mod
// grid) from the launch seed. The stride is chosen coprime to the grid so
// every block runs exactly once.
func scheduleParams(seed uint64, grid int) (stride, offset int) {
	if grid <= 1 {
		return 1, 0
	}
	stride = int(seed%uint64(grid)) | 1 // odd
	for gcd(stride, grid) != 1 {
		stride += 2
		if stride >= grid {
			stride = 1
			break
		}
	}
	offset = int((seed >> 32) % uint64(grid))
	return stride, offset
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}
