package sim

import (
	"context"
	"fmt"

	"repro/internal/kepler"
)

// GPU is a program's handle on one simulated GPU. It runs the program's
// kernels and records the run's launch trace, and it reads no clock: the
// handle knows the device's geometry and throughputs but not the
// configuration any measurement will price the run at, so no value it
// returns can depend on one. Pricing happens afterwards, once per
// configuration, by LaunchTrace.ReplayInto.
type GPU struct {
	// desc is the GPU description launches are simulated on (geometry,
	// throughputs, memory hierarchy).
	desc *kepler.Device
	// capacity is the global memory every configuration of the device
	// keeps: ECC takes its share off the top.
	capacity int64

	nextAddr Addr
	// repeats is each completed launch's Repeat count so far, indexed by
	// LaunchID; its length is the next launch's sequence number.
	repeats []int

	// timeScale is applied to every subsequent launch (see Launch.Scale).
	timeScale float64

	// exec is the caller-goroutine block executor, created by the first
	// launch and reused by later ones; parallel launches borrow additional
	// executors from a shared pool.
	exec *blockExecutor
	// pool is the worker budget parallel launches draw extra workers from.
	pool *WorkerPool
	// blockCycles is reused across launches for per-block issue cycles.
	blockCycles []float64

	// ctx is the cancellation signal the launch loops poll at block
	// granularity; Background when the GPU was not given one.
	ctx context.Context

	trace *LaunchTrace
}

// LaunchID names a launch of a run, for Repeat: the launch's sequence
// number (Launch.Seq of its priced record).
type LaunchID int

// NewGPU returns a handle on a fresh GPU of the given description.
func NewGPU(desc *kepler.Device) *GPU {
	return &GPU{
		desc:      desc,
		capacity:  int64(float64(desc.DRAMBytes) * (1 - desc.ECC.CapacityLoss)),
		nextAddr:  4096, // keep 0 unused so Addr(0) can mean "nil"
		timeScale: 1,
		pool:      defaultPool,
		ctx:       context.Background(),
		trace:     &LaunchTrace{device: desc.Name},
	}
}

// SetWorkerPool sets the pool this GPU draws extra block-simulation workers
// from; nil disables intra-launch sharding entirely. Measurements that
// already run many programs concurrently (core.Runner) pass their own pool
// so cross-job and intra-launch parallelism share one budget.
func (g *GPU) SetWorkerPool(p *WorkerPool) { g.pool = p }

// SetContext attaches a cancellation context to the GPU. Launch loops poll
// it at block granularity: when ctx is canceled, the in-flight launch aborts
// between blocks by unwinding with a cancellation panic (see CancelCause),
// so completed launches remain bit-identical to an uncanceled run and no
// partial launch is ever recorded. A nil ctx resets to Background (never
// canceled).
func (g *GPU) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	g.ctx = ctx
}

// Alloc reserves n bytes of device memory aligned to 256 bytes and returns
// the base address. It panics if the allocations exceed the memory every
// configuration of the device keeps (ECC reduces capacity), so a footprint
// runs at all of the device's configurations or at none.
func (g *GPU) Alloc(n int64) Addr {
	if n < 0 {
		panic("sim: negative allocation")
	}
	base := (g.nextAddr + 255) &^ 255
	g.nextAddr = base + Addr(n)
	if int64(g.nextAddr) > g.capacity {
		panic(fmt.Sprintf("sim: out of device memory: %d bytes requested, %d usable", n, g.capacity))
	}
	return base
}

// NewArray allocates an array of n elements of elem bytes each.
func (g *GPU) NewArray(n, elem int) Array {
	if n < 0 || elem <= 0 {
		panic("sim: invalid array shape")
	}
	return Array{Base: g.Alloc(int64(n) * int64(elem)), Elem: elem, Len: n}
}

// SetTimeScale sets the input surrogate factor applied to subsequent
// launches: the simulated input stands in for a k-times-larger real input.
// Durations and dynamic energy scale by k; average power, occupancy and all
// configuration ratios are unaffected. k must be >= 1.
func (g *GPU) SetTimeScale(k float64) {
	if k < 1 {
		k = 1
	}
	g.timeScale = k
}

// HostPause records dt seconds of host-side work (no kernel running, GPU at
// idle/tail power). Non-positive pauses are ignored.
func (g *GPU) HostPause(dt float64) {
	if dt <= 0 {
		return
	}
	g.trace.recordPause(dt)
}

// Repeat marks launch l as standing for n back-to-back identical
// executions. Use it for iterative kernels whose per-iteration behaviour is
// identical (e.g. fixed-point stencil sweeps, n-body timesteps): one
// iteration is simulated and the remaining ones replay its measured
// statistics. Launches and gaps that already follow l shift right when the
// run is priced, so repeating a mid-timeline launch keeps the timeline
// non-overlapping. A count at or below l's current one changes nothing.
func (g *GPU) Repeat(l LaunchID, n int) {
	if l < 0 || int(l) >= len(g.repeats) {
		panic(fmt.Sprintf("sim: Repeat of launch %d, %d launched", l, len(g.repeats)))
	}
	if n <= g.repeats[l] {
		return
	}
	g.repeats[l] = n
	g.trace.recordRepeat(int(l), n)
}

// Trace returns the launch trace the run has recorded. Call it after the
// run: the trace is the GPU's own, and later launches would extend it.
func (g *GPU) Trace() *LaunchTrace { return g.trace }
