package sim

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// WorkerPool is a budget of simulation workers shared between concurrent
// measurements (cross-job parallelism in core.MeasureAll) and the block
// sharding inside a single kernel launch, so the two layers draw from one
// GOMAXPROCS-sized pool instead of multiplying against each other.
//
// The protocol: a goroutine that simulates a device full-time holds one slot
// via Acquire/Release; a launch that wants to shard its blocks asks for
// additional workers with TryAcquire, which never blocks — when the pool is
// saturated by sibling jobs the launch simply runs on its caller, which is
// exactly the work-conserving outcome. Worker count never affects results
// (see Launch), so this adaptivity is safe.
type WorkerPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	budget int
	inUse  int

	// Optional metrics, nil until Instrument is called. All are updated
	// under mu, so the instrument fields themselves need no atomics.
	inUseGauge  *obs.Gauge
	peakGauge   *obs.Gauge
	acquires    *obs.Counter
	shardGrants *obs.Counter
	shardDenies *obs.Counter
}

// NewWorkerPool returns a pool with n worker slots (min 1).
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = 1
	}
	p := &WorkerPool{budget: n}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Instrument registers the pool's utilization metrics in reg:
// pool_workers_budget (gauge), pool_workers_in_use (gauge),
// pool_workers_in_use_peak (gauge), pool_acquires_total,
// pool_shard_slots_granted_total and pool_shard_denials_total (counters).
func (p *WorkerPool) Instrument(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	reg.Gauge("pool_workers_budget").Set(int64(p.budget))
	p.inUseGauge = reg.Gauge("pool_workers_in_use")
	p.peakGauge = reg.Gauge("pool_workers_in_use_peak")
	p.acquires = reg.Counter("pool_acquires_total")
	p.shardGrants = reg.Counter("pool_shard_slots_granted_total")
	p.shardDenies = reg.Counter("pool_shard_denials_total")
	p.noteUseLocked()
}

// noteUseLocked publishes the current occupancy to the gauges. Callers hold
// mu.
func (p *WorkerPool) noteUseLocked() {
	if p.inUseGauge == nil {
		return
	}
	p.inUseGauge.Set(int64(p.inUse))
	p.peakGauge.Max(int64(p.inUse))
}

// Budget returns the pool size.
func (p *WorkerPool) Budget() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.budget
}

// Acquire blocks until a slot is free and claims it, or returns the context
// error if ctx is canceled first. A nil ctx never cancels.
func (p *WorkerPool) Acquire(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		// Already canceled: fail without arming a wake-up, which for a done
		// context would spawn a goroutine per call.
		return err
	}
	if ctx.Done() != nil {
		// Wake the condition variable when the context fires; holding the
		// lock around Broadcast guarantees the waiter below cannot miss the
		// wakeup between its ctx check and cond.Wait.
		stop := context.AfterFunc(ctx, func() {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.cond.Broadcast()
		})
		defer stop()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// A canceled caller never claims a slot, even when one is free.
	if err := ctx.Err(); err != nil {
		return err
	}
	for p.inUse >= p.budget {
		p.cond.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	p.inUse++
	if p.acquires != nil {
		p.acquires.Inc()
	}
	p.noteUseLocked()
	return nil
}

// TryAcquire claims up to max slots without blocking and returns how many it
// actually claimed (possibly zero).
func (p *WorkerPool) TryAcquire(max int) int {
	if max <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.budget - p.inUse
	if n > max {
		n = max
	}
	if n < 0 {
		n = 0
	}
	p.inUse += n
	switch {
	case n > 0 && p.shardGrants != nil:
		p.shardGrants.Add(int64(n))
	case n == 0 && p.shardDenies != nil:
		p.shardDenies.Inc()
	}
	p.noteUseLocked()
	return n
}

// Release returns n previously claimed slots.
func (p *WorkerPool) Release(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	p.inUse -= n
	if p.inUse < 0 {
		p.inUse = 0
	}
	p.noteUseLocked()
	p.mu.Unlock()
	p.cond.Broadcast()
}

// defaultPool is the process-wide pool used by GPUs that were not given an
// explicit one (standalone NewGPU callers, tests, examples).
var defaultPool = NewWorkerPool(runtime.GOMAXPROCS(0))
