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

// Launch executes a kernel of grid x block threads and returns its record.
// The kernel function performs the real computation and records hardware
// operations through the Ctx. Blocks of an unordered launch may be simulated
// concurrently, so fn must not mutate Go state shared between threads of
// different blocks (threads writing disjoint slice elements is the common
// safe pattern); kernels that need the sequential block schedule declare it
// via LaunchOrdered. Within a block, warps run in order and the 32 lanes of
// a warp run lane 0 first.
func (d *Device) Launch(name string, grid, block int, fn ThreadFunc) *Launch {
	return d.LaunchSpec(LaunchSpec{Name: name, Grid: grid, Block: block}, fn)
}

// LaunchShared is Launch with a shared-memory allocation per block.
func (d *Device) LaunchShared(name string, grid, block, sharedPerBlock int, fn ThreadFunc) *Launch {
	return d.LaunchSpec(LaunchSpec{Name: name, Grid: grid, Block: block, SharedPerBlock: sharedPerBlock}, fn)
}

// LaunchOrdered executes a kernel whose Go-side effects are block-order
// dependent: blocks run sequentially in the deterministic, configuration-
// dependent permutation (see Device docs). Irregular kernels that
// self-schedule through shared state belong here.
func (d *Device) LaunchOrdered(name string, grid, block int, fn ThreadFunc) *Launch {
	return d.LaunchSpec(LaunchSpec{Name: name, Grid: grid, Block: block, Ordered: true}, fn)
}

// LaunchSharedOrdered is LaunchOrdered with a shared-memory allocation per
// block.
func (d *Device) LaunchSharedOrdered(name string, grid, block, sharedPerBlock int, fn ThreadFunc) *Launch {
	return d.LaunchSpec(LaunchSpec{Name: name, Grid: grid, Block: block, SharedPerBlock: sharedPerBlock, Ordered: true}, fn)
}

// LaunchSpec executes a kernel described by spec.
//
// Determinism contract: the Launch record is bit-identical no matter how
// many workers simulate the blocks, because (a) every KernelStats field is
// an int64 counter, so merging per-worker partials is exactly associative
// and commutative; (b) per-block issue cycles are stored indexed by block
// id, so the timing model never observes completion order; and (c) partials
// are folded in ascending worker index (trace.MergePartials), fixing the
// reduction order by construction.
func (d *Device) LaunchSpec(spec LaunchSpec, fn ThreadFunc) *Launch {
	if spec.Grid <= 0 || spec.Block <= 0 {
		panic("sim: launch with empty grid or block")
	}
	d.checkCanceled()
	if spec.Block > d.desc.MaxThreadsPerBlock {
		panic("sim: block size exceeds device limit")
	}

	seq := d.seq
	d.seq++
	occ := d.desc.ComputeOccupancy(spec.Block, spec.SharedPerBlock)

	if cap(d.blockCycles) < spec.Grid {
		d.blockCycles = make([]float64, spec.Grid)
	}
	blockCycles := d.blockCycles[:spec.Grid]

	var stats trace.KernelStats
	if spec.Ordered {
		d.runOrdered(spec, fn, launchSeed(spec.Name, seq), blockCycles, &stats)
	} else {
		d.runSharded(spec, fn, blockCycles, &stats)
	}

	// Host-side gap before this launch (driver/launch overhead).
	if len(d.Launches) > 0 || len(d.Gaps) > 0 {
		d.Gaps = append(d.Gaps, Gap{Start: d.now, Duration: d.interLaunchGap})
		d.now += d.interLaunchGap
	}

	// The block schedule is clock-independent: derive it once and hand the
	// same value to the capture and the pricing.
	sched := blockSchedule(d.desc.SMs, occ, blockCycles)
	if d.capture != nil {
		d.capture.recordLaunch(spec, occ, &stats, blockCycles, sched, d.timeScale)
	}

	l := &Launch{
		Name:           spec.Name,
		Seq:            seq,
		Grid:           spec.Grid,
		Block:          spec.Block,
		SharedPerBlock: spec.SharedPerBlock,
		Occ:            occ,
		Stats:          stats,
		Start:          d.now,
		Repeat:         1,
		Scale:          d.timeScale,
	}
	l.Duration, l.TCore, l.TMem = kernelTime(d.Clocks, occ, &stats, sched)
	l.Duration *= d.timeScale
	l.TCore *= d.timeScale
	l.TMem *= d.timeScale
	d.now += l.Duration
	d.Launches = append(d.Launches, l)
	return l
}

// runOrdered simulates the blocks sequentially on the caller, visiting them
// in the seed-derived permutation. This is the path order-dependent kernels
// take; it is byte-for-byte the pre-parallel engine.
func (d *Device) runOrdered(spec LaunchSpec, fn ThreadFunc, seed uint64, blockCycles []float64, stats *trace.KernelStats) {
	stride, offset := scheduleParams(seed, spec.Grid)
	b := offset
	for i := 0; i < spec.Grid; i++ {
		d.checkCanceled()
		bs := d.exec.runBlock(spec, fn, b)
		blockCycles[b] = issueCycles(d.desc, &bs)
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
// extra workers from the device's pool when any are free. Workers pull
// block ids from an atomic counter (dynamic load balancing — irregular
// kernels have heavily imbalanced blocks); each accumulates a private
// partial KernelStats, and the partials are merged in worker-index order.
func (d *Device) runSharded(spec LaunchSpec, fn ThreadFunc, blockCycles []float64, stats *trace.KernelStats) {
	extra := 0
	if pool := d.pool; pool != nil && spec.Grid >= minShardBlocks && spec.Grid*spec.Block >= minShardThreads {
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
			d.checkCanceled()
			bs := d.exec.runBlock(spec, fn, b)
			blockCycles[b] = issueCycles(d.desc, &bs)
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
			if d.ctx.Err() != nil {
				return
			}
			b := int(next.Add(1)) - 1
			if b >= spec.Grid {
				return
			}
			bs := e.runBlock(spec, fn, b)
			blockCycles[b] = issueCycles(d.desc, &bs)
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
	work(0, d.exec)
	wg.Wait()
	d.checkCanceled()
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
