// Package sim is the execution engine of the simulated Kepler-class GPU.
// It has two halves that share no clock:
//
//   - A program runs on a GPU, a clock-free handle. Benchmarks allocate
//     virtual device memory, launch kernels as per-thread Go functions that
//     both perform the real computation and record the hardware operations
//     they would issue, and mark host pauses and launch replays (Repeat).
//     The handle records the launch trace — per-block statistics and issue
//     cycles, which no clock influences — and exposes no simulated time:
//     nothing a program can read depends on the clock configuration.
//   - A Device is one run priced at one clock configuration: the launch
//     timeline with every duration, start and gap. The only way to build
//     one is LaunchTrace.ReplayInto, which runs the timing model over the
//     recorded trace (see capture.go).
//
// The engine is deterministic. Kernels launched with LaunchOrdered execute
// their thread blocks sequentially in an order derived from a hash of the
// kernel name and the launch sequence number only; irregular programs that
// self-schedule work through atomics therefore observe a scrambled but fixed
// ordering. Kernels launched with Launch declare their blocks independent and
// may have them sharded across a worker pool (see WorkerPool) — with
// bit-identical results, because the statistics merge is associative and
// commutative and per-block timing is indexed by block id (see LaunchSpec).
package sim

import (
	"repro/internal/hashing"
	"repro/internal/kepler"
	"repro/internal/trace"
)

// Addr is a virtual device-memory address.
type Addr = uint64

// Launch records one priced kernel launch: its shape, merged statistics,
// computed duration and position on the simulated timeline.
type Launch struct {
	// Name is the kernel name (for reports and scheduling hashes).
	Name string
	// Seq is the launch sequence number within the run (the LaunchID the
	// program got for it).
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

// Device is one program run priced at a fixed clock configuration. It is
// built only by LaunchTrace.ReplayInto, after the run.
type Device struct {
	// Clocks is the DVFS/ECC configuration the run was priced at.
	Clocks kepler.Clocks

	// Launches is the ordered record of every kernel launch.
	Launches []*Launch
	// Gaps records host-side pauses between launches.
	Gaps []Gap

	now float64

	// replayed holds the launch records in one block (Launches points into
	// it); ReplayInto reuses it.
	replayed []Launch
}

// Now returns the simulated time in seconds at the end of the run.
func (d *Device) Now() float64 { return d.now }

// ActiveTime returns the total simulated time spent executing kernels.
func (d *Device) ActiveTime() float64 {
	var t float64
	for _, l := range d.Launches {
		t += l.TotalDuration()
	}
	return t
}

// Array is a typed view of a device allocation.
type Array struct {
	Base Addr
	Elem int // element size in bytes
	Len  int
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

// launchSeed derives the deterministic block-scheduling seed for a launch
// from the kernel name and the launch sequence number. It reads no clock, so
// an ordered launch visits its blocks in the same order at every
// configuration and its capture replays like any other launch.
func launchSeed(name string, seq int) uint64 {
	return hashing.New().String(name).Word(uint64(seq)).Mix()
}
