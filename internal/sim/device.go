// Package sim is the execution engine of the simulated Kepler-class GPU.
// Benchmarks allocate virtual device memory, launch kernels as per-thread Go
// functions that both perform the real computation and record the hardware
// operations they would issue, and the engine converts the recorded
// warp-level statistics into kernel execution times on a simulated clock.
//
// The engine is deterministic. Kernels launched with LaunchOrdered execute
// their thread blocks sequentially in an order derived from a hash of the
// kernel name and the launch sequence number only; irregular programs that
// self-schedule work through atomics therefore observe a scrambled but fixed
// ordering, the same at every clock configuration, so their data evolution
// (and with it every counter the timing model prices) does not depend on the
// clocks. Kernels launched with Launch declare their blocks independent and
// may have them sharded across a worker pool (see WorkerPool) — with
// bit-identical results, because the statistics merge is associative and
// commutative and per-block timing is indexed by block id (see LaunchSpec).
package sim

import (
	"context"
	"fmt"

	"repro/internal/hashing"
	"repro/internal/kepler"
	"repro/internal/trace"
)

// Addr is a virtual device-memory address.
type Addr = uint64

// Launch records one kernel launch: its shape, merged statistics, computed
// duration and position on the simulated timeline.
type Launch struct {
	// Name is the kernel name (for reports and scheduling hashes).
	Name string
	// Seq is the launch sequence number within the device's lifetime.
	Seq int
	// Grid and Block are the launch shape (blocks, threads per block).
	Grid, Block int
	// SharedPerBlock is the shared memory per block in bytes.
	SharedPerBlock int
	// Occ is the per-SM residency for this shape.
	Occ kepler.Occupancy
	// Stats are the merged warp statistics of a single execution.
	Stats trace.KernelStats
	// Start is the simulated start time in seconds.
	Start float64
	// Duration is the simulated duration of ONE execution in seconds.
	Duration float64
	// Repeat is how many back-to-back executions this launch stands for
	// (launch replay for iterative kernels); total time is Duration*Repeat.
	Repeat int
	// Scale is the input surrogate factor: the simulated input stands for a
	// Scale-times-larger real input, so Duration (already multiplied) and
	// dynamic energy are scaled while average power and configuration
	// ratios stay unchanged. Always >= 1 (SetTimeScale clamps it and
	// DecodeTrace rejects a smaller one).
	Scale float64
	// TCore and TMem are the compute- and memory-side time components of one
	// execution, before overlap (seconds).
	TCore, TMem float64
}

// TotalDuration returns Duration*Repeat.
func (l *Launch) TotalDuration() float64 { return l.Duration * float64(l.Repeat) }

// Gap is a host-side pause on the timeline (no kernel running).
type Gap struct {
	Start, Duration float64
}

// Device is one simulated GPU in a fixed clock configuration.
type Device struct {
	// Clocks is the DVFS/ECC configuration the device runs at.
	Clocks kepler.Clocks

	// desc is the GPU description the configuration belongs to (geometry,
	// throughputs, memory hierarchy); cached from Clocks.Device().
	desc *kepler.Device

	// Launches is the ordered record of every kernel launch.
	Launches []*Launch
	// Gaps records host-side pauses between launches.
	Gaps []Gap

	nextAddr Addr
	now      float64
	seq      int

	// interLaunchGap is the host-side time between consecutive launches.
	interLaunchGap float64
	// timeScale is applied to every subsequent launch (see Launch.Scale).
	timeScale float64

	// exec is the caller-goroutine block executor, created by the first
	// launch and reused by later ones (a replayed device never needs one);
	// parallel launches borrow additional executors from a shared pool.
	exec *blockExecutor
	// pool is the worker budget parallel launches draw extra workers from.
	pool *WorkerPool
	// blockCycles is reused across launches for per-block issue cycles.
	blockCycles []float64

	// ctx is the cancellation signal the launch loops poll at block
	// granularity; Background when the device was not given one.
	ctx context.Context

	// capture, when non-nil, records the clock-independent launch timeline
	// (see BeginCapture) and flags clock-sensitive behaviour.
	capture *LaunchTrace

	// replayed holds the launch records of a replayed timeline in one
	// block (Launches points into it); ReplayInto reuses it.
	replayed []Launch
}

// NewDevice creates a device at the given clock configuration. The seed
// perturbs nothing in the engine itself (execution is deterministic per
// configuration); it only distinguishes repeated experiments in the sensor
// and power noise downstream.
func NewDevice(clk kepler.Clocks) *Device {
	d := new(Device)
	d.init(clk)
	return d
}

// init sets *d to a new device at clk, keeping nothing of its former state.
func (d *Device) init(clk kepler.Clocks) {
	*d = Device{
		Clocks:         clk,
		desc:           clk.Device(),
		nextAddr:       4096, // keep 0 unused so Addr(0) can mean "nil"
		interLaunchGap: 40e-6,
		timeScale:      1,
		pool:           defaultPool,
		ctx:            context.Background(),
	}
}

// SetWorkerPool sets the pool this device draws extra block-simulation
// workers from; nil disables intra-launch sharding entirely. Measurements
// that already run many devices concurrently (core.Runner) pass their own
// pool so cross-job and intra-launch parallelism share one budget.
func (d *Device) SetWorkerPool(p *WorkerPool) { d.pool = p }

// SetContext attaches a cancellation context to the device. Launch loops
// poll it at block granularity: when ctx is canceled, the in-flight launch
// aborts between blocks by unwinding with a cancellation panic (see
// CancelCause), so completed launches remain bit-identical to an uncanceled
// run and no partial launch is ever recorded. A nil ctx resets to
// Background (never canceled).
func (d *Device) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	d.ctx = ctx
}

// Now returns the simulated time in seconds. Reading it during a capture
// marks the trace clock-sensitive: simulated time is priced per
// configuration, so a program that branches on it evolves config-dependent
// Go state and cannot be replayed across configurations.
func (d *Device) Now() float64 {
	if d.capture != nil {
		d.capture.markSensitive("mid-run Now() read")
	}
	return d.now
}

// ActiveTime returns the total simulated time spent executing kernels. Like
// Now, a mid-capture read marks the trace clock-sensitive.
func (d *Device) ActiveTime() float64 {
	if d.capture != nil {
		d.capture.markSensitive("mid-run ActiveTime() read")
	}
	var t float64
	for _, l := range d.Launches {
		t += l.TotalDuration()
	}
	return t
}

// Alloc reserves n bytes of device memory aligned to 256 bytes and returns
// the base address. It panics if the allocation exceeds the usable DRAM of
// the current configuration (ECC reduces capacity by 12.5%).
func (d *Device) Alloc(n int64) Addr {
	if n < 0 {
		panic("sim: negative allocation")
	}
	base := (d.nextAddr + 255) &^ 255
	d.nextAddr = base + Addr(n)
	if int64(d.nextAddr) > d.Clocks.UsableDRAM() {
		panic(fmt.Sprintf("sim: out of device memory: %d bytes requested, %d usable", n, d.Clocks.UsableDRAM()))
	}
	return base
}

// Array is a typed view of a device allocation.
type Array struct {
	Base Addr
	Elem int // element size in bytes
	Len  int
}

// NewArray allocates an array of n elements of elem bytes each.
func (d *Device) NewArray(n, elem int) Array {
	if n < 0 || elem <= 0 {
		panic("sim: invalid array shape")
	}
	return Array{Base: d.Alloc(int64(n) * int64(elem)), Elem: elem, Len: n}
}

// At returns the address of element i. Out-of-range indices are clamped into
// the array so that recording remains safe even for speculative accesses.
func (a Array) At(i int) Addr {
	if i < 0 {
		i = 0
	}
	if a.Len > 0 && i >= a.Len {
		i = a.Len - 1
	}
	return a.Base + Addr(i*a.Elem)
}

// SetTimeScale sets the input surrogate factor applied to subsequent
// launches: the simulated input stands in for a k-times-larger real input.
// Durations and dynamic energy scale by k; average power, occupancy and all
// configuration ratios are unaffected. k must be >= 1.
func (d *Device) SetTimeScale(k float64) {
	if k < 1 {
		k = 1
	}
	d.timeScale = k
}

// HostPause advances the simulated clock by dt seconds of host-side work
// (no kernel running, GPU at idle/tail power).
func (d *Device) HostPause(dt float64) {
	if dt <= 0 {
		return
	}
	if d.capture != nil {
		d.capture.recordPause(dt)
	}
	d.Gaps = append(d.Gaps, Gap{Start: d.now, Duration: dt})
	d.now += dt
}

// Repeat marks the launch as standing for n back-to-back identical
// executions and advances the simulated clock for the additional n-1. Use it
// for iterative kernels whose per-iteration behaviour is identical (e.g.
// fixed-point stencil sweeps, n-body timesteps): one iteration is simulated
// and the remaining ones replay its measured statistics. Launches and gaps
// that already follow l on the timeline are shifted right, so replaying a
// mid-timeline launch keeps the timeline non-overlapping.
func (d *Device) Repeat(l *Launch, n int) {
	if l == nil || n <= l.Repeat {
		return
	}
	if d.capture != nil {
		// Launches[i].Seq == i by construction (every launch appends one
		// record and takes the next sequence number), so Seq doubles as the
		// timeline index replay needs.
		d.capture.recordRepeat(l.Seq, n)
	}
	extra := float64(n-l.Repeat) * l.Duration
	l.Repeat = n
	for _, other := range d.Launches {
		if other != l && other.Start > l.Start {
			other.Start += extra
		}
	}
	for i := range d.Gaps {
		if d.Gaps[i].Start > l.Start {
			d.Gaps[i].Start += extra
		}
	}
	d.now += extra
}

// launchSeed derives the deterministic block-scheduling seed for a launch
// from the kernel name and the launch sequence number. It reads no clock, so
// an ordered launch visits its blocks in the same order at every
// configuration and its capture replays like any other launch.
func launchSeed(name string, seq int) uint64 {
	return hashing.New().String(name).Word(uint64(seq)).Mix()
}
