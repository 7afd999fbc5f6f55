package sim

import (
	"sync"

	"repro/internal/kepler"
	"repro/internal/trace"
)

// blockExecutor owns the per-warp lane state needed to simulate thread
// blocks. It carries no cross-block state — lanes are reset per warp — so
// simulating a block is a pure function of (spec, fn, block id): distinct
// executors may simulate distinct blocks of the same launch concurrently,
// and the same executor reproduces the same per-block statistics regardless
// of which blocks it simulated before.
type blockExecutor struct {
	lanes [kepler.WarpSize]*trace.LaneLog
	// view is a slice header over lanes for trace.MergeWarp.
	view []*trace.LaneLog
}

func newBlockExecutor() *blockExecutor {
	e := &blockExecutor{}
	e.view = make([]*trace.LaneLog, kepler.WarpSize)
	for i := range e.lanes {
		e.lanes[i] = &trace.LaneLog{}
		e.view[i] = e.lanes[i]
	}
	return e
}

// runBlock simulates one thread block of a launch: warps in order, the 32
// lanes of each warp with lane 0 first, each warp merged into the block's
// statistics as it retires. The returned KernelStats describe exactly this
// block.
func (e *blockExecutor) runBlock(spec LaunchSpec, fn ThreadFunc, block int) trace.KernelStats {
	var bs trace.KernelStats
	ctx := Ctx{Block: block, BlockDim: spec.Block, GridDim: spec.Grid}
	for warpBase := 0; warpBase < spec.Block; warpBase += kepler.WarpSize {
		for ln := 0; ln < kepler.WarpSize; ln++ {
			e.lanes[ln].Reset()
			t := warpBase + ln
			if t >= spec.Block {
				continue
			}
			ctx.Thread = t
			ctx.lane = e.lanes[ln]
			fn(&ctx)
		}
		trace.MergeWarp(e.view, &bs)
	}
	return bs
}

// executorPool recycles blockExecutors (and the op buffers their lane logs
// have grown) across parallel launches. Return executors through
// putExecutor, never executorPool.Put directly: one pathological kernel
// would otherwise pin its op-buffer high-water mark in the pool for the
// process lifetime.
var executorPool = sync.Pool{New: func() any { return newBlockExecutor() }}

// maxPooledOpsPerLane caps the op-buffer capacity a pooled lane log may
// retain (16 B/op x 32 lanes = 2 MiB per executor at the cap). Buffers
// grown beyond it by an outsized kernel are dropped on return and
// reallocated lazily by the next big launch.
const maxPooledOpsPerLane = 4096

// putExecutor returns an executor to the pool, dropping any lane buffer an
// outsized kernel grew past maxPooledOpsPerLane.
func putExecutor(e *blockExecutor) {
	for _, l := range e.lanes {
		l.Trim(maxPooledOpsPerLane)
	}
	executorPool.Put(e)
}
