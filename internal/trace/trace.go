// Package trace records the hardware operations issued by the threads of a
// simulated kernel and condenses them into warp-level statistics. Threads
// append operation records to per-lane logs; the warp merger groups lanes by
// control-flow path (branch divergence serializes distinct paths), coalesces
// global-memory accesses into 128-byte segment transactions, and detects
// shared-memory bank conflicts and same-address atomic contention.
//
// Operation records carry a repeat count so that regular inner loops (for
// example the k-loop of a tiled matrix multiply) can be recorded in O(1)
// instead of O(iterations): a repeated memory record stands for `rep`
// back-to-back accesses with the same relative lane layout, which coalesce
// identically.
package trace

import "fmt"

// Kind identifies the class of a recorded operation.
type Kind uint8

// Operation kinds. Compute kinds carry a repeat count; memory kinds carry an
// address, an access size in bytes, and a repeat count.
const (
	KindInt Kind = iota
	KindFP32
	KindFP64
	KindSFU
	KindLoad
	KindStore
	KindShared
	KindAtomic
	KindSync
)

var kindNames = [...]string{"int", "fp32", "fp64", "sfu", "load", "store", "shared", "atomic", "sync"}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// op is one recorded operation of one lane, packed into 16 bytes: the kind
// and the access size share one word, so the merge compares both at once.
type op struct {
	ks   uint32 // kind<<24 | access size in bytes (memory kinds)
	rep  uint32 // repeat count
	addr uint64 // virtual address (memory kinds)
}

// maxOpSize is the largest access size the packed kind/size word holds.
const maxOpSize = 1<<24 - 1

func (o *op) kind() Kind   { return Kind(o.ks >> 24) }
func (o *op) size() uint32 { return o.ks & maxOpSize }

// LaneLog accumulates the operations of a single thread (lane).
type LaneLog struct {
	ops []op
}

// Reset clears the log for reuse.
func (l *LaneLog) Reset() {
	l.ops = l.ops[:0]
}

// Len returns the number of recorded operation slots.
func (l *LaneLog) Len() int { return len(l.ops) }

// Cap returns the capacity of the op buffer in operation slots.
func (l *LaneLog) Cap() int { return cap(l.ops) }

// Trim drops the op buffer when its capacity exceeds max slots, so pools
// that recycle lane logs do not pin one outsized kernel's footprint for the
// life of the process. The buffer is reallocated lazily on the next record.
func (l *LaneLog) Trim(max int) {
	if cap(l.ops) > max {
		l.ops = nil
	}
}

// record appends one operation. An access size the packed word cannot hold
// panics rather than silently aliasing a smaller size.
func (l *LaneLog) record(k Kind, size int, rep uint32, addr uint64) {
	if uint(size) > maxOpSize {
		panic(opSizeError(size))
	}
	l.ops = append(l.ops, op{ks: uint32(k)<<24 | uint32(size), rep: rep, addr: addr})
}

// opSizeError is record's panic value: a conversion rather than a call, so
// record stays small enough to inline into the recording methods.
type opSizeError int

func (e opSizeError) Error() string {
	return fmt.Sprintf("trace: access size %d bytes does not fit the %d-byte maximum", int(e), maxOpSize)
}

// Compute records n back-to-back compute operations of the given kind.
func (l *LaneLog) Compute(k Kind, n int) {
	if n <= 0 {
		return
	}
	l.record(k, 0, uint32(n), 0)
}

// Global records a global-memory access (KindLoad or KindStore) of size
// bytes at addr.
func (l *LaneLog) Global(k Kind, addr uint64, size int) {
	l.GlobalRep(k, addr, size, 1)
}

// GlobalRep records rep back-to-back global accesses with the same relative
// warp layout as the one at addr (a regular strided loop).
func (l *LaneLog) GlobalRep(k Kind, addr uint64, size, rep int) {
	if rep <= 0 {
		return
	}
	if size <= 0 {
		size = 4
	}
	l.record(k, size, uint32(rep), addr)
}

// Shared records a shared-memory access at the given byte offset.
func (l *LaneLog) Shared(offset uint64) {
	l.SharedRep(offset, 1)
}

// SharedRep records rep shared-memory accesses with the bank layout of the
// one at offset.
func (l *LaneLog) SharedRep(offset uint64, rep int) {
	if rep <= 0 {
		return
	}
	l.record(KindShared, 4, uint32(rep), offset)
}

// Atomic records a global atomic operation on addr.
func (l *LaneLog) Atomic(addr uint64) {
	l.record(KindAtomic, 4, 1, addr)
}

// Sync records a block-wide barrier.
func (l *LaneLog) Sync() {
	l.record(KindSync, 0, 1, 0)
}
