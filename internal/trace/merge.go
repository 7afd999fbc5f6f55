package trace

import (
	"fmt"
	"math"
	"math/bits"
)

// KernelStats aggregates the warp-level cost of a kernel (or of one thread
// block of a kernel). All instruction counts are warp-instruction issue slots
// after branch-divergence serialization: a warp whose lanes took two distinct
// control-flow paths executes the instructions of both paths serially.
//
// Every field is an int64 counter — deliberately. Integer addition is
// exactly associative and commutative, so accumulating per-block statistics
// through Add yields bit-identical totals no matter how the blocks were
// grouped or ordered; the parallel launch engine (internal/sim) depends on
// this to merge per-worker partials deterministically. Do not add float
// fields: float addition is order-dependent, and any derived ratio belongs
// in a method instead.
type KernelStats struct {
	// Warps is the number of warps merged.
	Warps int64
	// Slots is the total number of lockstep instruction slots executed.
	Slots int64
	// Paths is the total number of distinct concurrent operation groups
	// summed over all slots (>= Slots; == Slots when every warp is fully
	// convergent). Paths/Slots is the mean serialization per slot.
	Paths int64
	// LaneSlots is the number of active lane-slot pairs; LaneSlots /
	// (32*Slots) is the SIMD efficiency (1 = no masked lanes).
	LaneSlots int64

	// IntInsts, FP32Insts, FP64Insts and SFUInsts count compute
	// warp-instructions by functional-unit class.
	IntInsts  int64
	FP32Insts int64
	FP64Insts int64
	SFUInsts  int64

	// LoadSlots and StoreSlots count global-memory warp instructions.
	LoadSlots  int64
	StoreSlots int64
	// GlobalTxns is the number of 128-byte segment transactions those
	// instructions generate after coalescing.
	GlobalTxns int64
	// GlobalBytes is the number of bytes the threads actually requested
	// (useful bytes; GlobalTxns*128 - GlobalBytes is fetch waste).
	GlobalBytes int64

	// SharedSlots counts shared-memory warp instructions and SharedCycles
	// the cycles they take including bank-conflict replays.
	SharedSlots  int64
	SharedCycles int64

	// Atomics counts per-lane global atomic operations; AtomicConflicts is
	// the extra serialization from multiple lanes updating the same address.
	Atomics         int64
	AtomicConflicts int64

	// Syncs counts block-wide barrier instructions.
	Syncs int64
}

// MergePartials folds per-worker partial sums into dst in ascending index
// order. Because Add is exactly associative and commutative (all-int64
// counters), the result does not depend on how blocks were distributed
// across the partials; folding in a fixed order makes the reduction
// deterministic by construction rather than by argument.
func MergePartials(dst *KernelStats, partials []KernelStats) {
	for i := range partials {
		dst.Add(&partials[i])
	}
}

// Add accumulates other into s.
func (s *KernelStats) Add(other *KernelStats) {
	s.Warps += other.Warps
	s.Slots += other.Slots
	s.Paths += other.Paths
	s.LaneSlots += other.LaneSlots
	s.IntInsts += other.IntInsts
	s.FP32Insts += other.FP32Insts
	s.FP64Insts += other.FP64Insts
	s.SFUInsts += other.SFUInsts
	s.LoadSlots += other.LoadSlots
	s.StoreSlots += other.StoreSlots
	s.GlobalTxns += other.GlobalTxns
	s.GlobalBytes += other.GlobalBytes
	s.SharedSlots += other.SharedSlots
	s.SharedCycles += other.SharedCycles
	s.Atomics += other.Atomics
	s.AtomicConflicts += other.AtomicConflicts
	s.Syncs += other.Syncs
}

// Scale multiplies every counter by k. It is used when one representative
// execution stands in for k identical iterations.
func (s *KernelStats) Scale(k int64) {
	s.Warps *= k
	s.Slots *= k
	s.Paths *= k
	s.LaneSlots *= k
	s.IntInsts *= k
	s.FP32Insts *= k
	s.FP64Insts *= k
	s.SFUInsts *= k
	s.LoadSlots *= k
	s.StoreSlots *= k
	s.GlobalTxns *= k
	s.GlobalBytes *= k
	s.SharedSlots *= k
	s.SharedCycles *= k
	s.Atomics *= k
	s.AtomicConflicts *= k
	s.Syncs *= k
}

// ComputeInsts returns the total compute warp-instruction count.
func (s *KernelStats) ComputeInsts() int64 {
	return s.IntInsts + s.FP32Insts + s.FP64Insts + s.SFUInsts
}

// TotalIssueSlots returns every warp-instruction issue slot, compute and
// memory alike.
func (s *KernelStats) TotalIssueSlots() int64 {
	return s.ComputeInsts() + s.LoadSlots + s.StoreSlots + s.SharedSlots + s.Atomics + s.Syncs
}

// DivergenceRatio returns the mean number of serialized operation groups
// per lockstep slot (1 = fully convergent).
func (s *KernelStats) DivergenceRatio() float64 {
	if s.Slots == 0 {
		return 1
	}
	return float64(s.Paths) / float64(s.Slots)
}

// SIMDEfficiency returns the fraction of lane slots that carried active
// lanes (1 = no masked lanes).
func (s *KernelStats) SIMDEfficiency() float64 {
	if s.Slots == 0 {
		return 1
	}
	return float64(s.LaneSlots) / float64(32*s.Slots)
}

// CoalescingEfficiency returns useful bytes divided by fetched bytes
// (1 = perfectly coalesced). A ratio above 1 is an accounting violation —
// the merge cannot request more useful bytes than its transactions fetch —
// reported by CheckAccounting; here it is clamped, because a derived ratio
// must stay in [0, 1] even if a future accounting bug ships.
func (s *KernelStats) CoalescingEfficiency() float64 {
	fetched := s.GlobalTxns * 128
	if fetched == 0 {
		return 1
	}
	return min(float64(s.GlobalBytes)/float64(fetched), 1)
}

// CheckAccounting validates the cross-counter consistency the derived
// metrics rely on. A non-nil error means the merge produced an impossible
// combination; the clamped accessors would hide it, so callers that care
// about accounting integrity (internal/check's attribution and calibration
// passes) assert this explicitly on every launch.
func (s *KernelStats) CheckAccounting() error {
	switch {
	case s.GlobalBytes > 128*s.GlobalTxns:
		return fmt.Errorf("trace: %d useful bytes exceed %d fetched (%d transactions x 128)",
			s.GlobalBytes, 128*s.GlobalTxns, s.GlobalTxns)
	case s.GlobalTxns > 0 && s.LoadSlots+s.StoreSlots+s.Atomics == 0:
		return fmt.Errorf("trace: %d global transactions with no load/store/atomic slots", s.GlobalTxns)
	case s.Paths < s.Slots:
		return fmt.Errorf("trace: %d paths below %d slots (every slot has at least one group)", s.Paths, s.Slots)
	case s.LaneSlots > 32*s.Slots:
		return fmt.Errorf("trace: %d lane-slots exceed 32 x %d slots", s.LaneSlots, s.Slots)
	}
	return nil
}

// MergeWarp condenses the lanes of one warp into stats. Lanes may be nil or
// empty (inactive threads past the end of the grid, or threads that recorded
// nothing). The merge walks the lanes in lockstep, one instruction slot at a
// time:
//
//   - lanes whose operation at the slot has the same kind and access size
//     execute together as one SIMD group; a loop whose trip counts differ
//     across lanes costs the maximum repeat count, with short-tripping lanes
//     masked off (as on real hardware);
//   - lanes whose operations differ in kind at the same slot are on distinct
//     control-flow paths and their groups execute serially (branch
//     divergence);
//   - memory coalescing, bank-conflict and atomic-contention analysis runs
//     within each group, since only its lanes access memory together.
func MergeWarp(lanes []*LaneLog, stats *KernelStats) {
	// act lists the op logs of the lanes still active, in lane order; the
	// lanes that end at slot end-1 leave it after that slot, so the slot
	// loop below touches only lanes that have an operation there.
	var act [32][]op
	n, end := 0, math.MaxInt
	for _, l := range lanes {
		if l != nil && len(l.ops) > 0 {
			act[n] = l.ops
			n++
			end = min(end, len(l.ops))
		}
	}
	if n == 0 {
		return
	}
	stats.Warps++

	// Per-slot lane cache, in lane order, so every group's address list
	// sees its lanes in exactly that order.
	var cKs, cRep [32]uint32
	var cAddr, addrs [32]uint64
	for slot := 0; n > 0; slot++ {
		// One pass copies the slot, marks the lanes in lane 0's group and
		// gathers that group's repeat count.
		ks := act[0][slot].ks
		var same uint32
		var maxRep uint32
		lanesHere := n
		for i := 0; i < lanesHere; i++ {
			o := &act[i][slot]
			cKs[i], cRep[i], cAddr[i] = o.ks, o.rep, o.addr
			if o.ks == ks {
				same |= 1 << i
			}
			if o.rep > maxRep {
				maxRep = o.rep
			}
		}
		if slot+1 == end {
			// Retire the lanes that end here.
			n, end = 0, math.MaxInt
			for _, ops := range act[:lanesHere] {
				if len(ops) > slot+1 {
					act[n] = ops
					n++
					end = min(end, len(ops))
				}
			}
		}
		stats.Slots++
		stats.LaneSlots += int64(lanesHere)
		all := uint32(1<<lanesHere - 1)
		if same == all {
			// Convergent slot: one group, already gathered.
			stats.Paths++
			mergeGroup(stats, ks, int64(maxRep), cAddr[:lanesHere])
			continue
		}

		// Divergent slot: peel the groups off in order of their first lane.
		for rest := all; rest != 0; {
			k := cKs[bits.TrailingZeros32(rest)]
			var groupRep uint32
			m := 0
			for r := rest; r != 0; r &= r - 1 {
				i := bits.TrailingZeros32(r)
				if cKs[i] != k {
					continue
				}
				rest &^= 1 << i
				if cRep[i] > groupRep {
					groupRep = cRep[i]
				}
				addrs[m] = cAddr[i]
				m++
			}
			stats.Paths++
			mergeGroup(stats, k, int64(groupRep), addrs[:m])
		}
	}
}

// mergeGroup accounts one SIMD group of a slot: the lanes whose operation
// has the packed kind/size word ks, their maximum repeat count and their
// addresses in lane order.
func mergeGroup(stats *KernelStats, ks uint32, maxRep int64, addrs []uint64) {
	o := op{ks: ks}
	switch o.kind() {
	case KindInt:
		stats.IntInsts += maxRep
	case KindFP32:
		stats.FP32Insts += maxRep
	case KindFP64:
		stats.FP64Insts += maxRep
	case KindSFU:
		stats.SFUInsts += maxRep
	case KindSync:
		stats.Syncs += maxRep
	case KindLoad, KindStore:
		size := int64(o.size())
		segs, distinct := coalesce(addrs, int(size))
		txns := int64(segs)
		stats.GlobalTxns += txns * maxRep
		// Useful bytes are counted over DISTINCT addresses: lanes
		// broadcasting from one location consume one fetch.
		useful := size * int64(distinct)
		if cap := txns * 128; useful > cap {
			useful = cap
		}
		stats.GlobalBytes += useful * maxRep
		if o.kind() == KindLoad {
			stats.LoadSlots += maxRep
		} else {
			stats.StoreSlots += maxRep
		}
	case KindShared:
		stats.SharedSlots += maxRep
		stats.SharedCycles += int64(bankConflictCycles(addrs)) * maxRep
	case KindAtomic:
		stats.Atomics += int64(len(addrs)) * maxRep
		stats.AtomicConflicts += int64(sameAddrExtra(addrs)) * maxRep
	}
}

// coalesce returns segmentCount(addrs, size) and distinctCount(addrs). The
// lane-ordered shapes — ascending strides and broadcasts, whose segment
// sequence never decreases — are answered in one pass; anything else goes
// to coalesceScattered.
func coalesce(addrs []uint64, size int) (segments, distinct int) {
	if size <= 0 {
		size = 4
	}
	sz := uint64(size)
	a0 := addrs[0]
	var prev uint64 // last segment touched so far
	ascending, uniform := true, true
	for i, a := range addrs {
		first, last := a>>7, (a+sz-1)>>7
		switch {
		case last < first || (i > 0 && first < prev):
			// A falling segment (or an access wrapping the address space):
			// not the lane-ordered shape.
			return coalesceScattered(addrs, size)
		case i == 0 || first > prev:
			segments++
		}
		segments += int(last - first)
		prev = last
		if i > 0 && a <= addrs[i-1] {
			ascending = false
		}
		if a != a0 {
			uniform = false
		}
	}
	switch {
	case ascending:
		return segments, len(addrs)
	case uniform:
		return segments, 1
	}
	return segments, distinctCount(addrs)
}

// coalesceScattered is coalesce for the shapes whose segment sequence
// falls. When every access lies inside one segment, the distinct segment
// numbers are exactly segmentCount's answer (a warp's at most 32 segments
// never overflow its tracked set), the addresses are neither ascending nor
// uniform (either would have kept the segments from falling), and accesses
// that all land in distinct segments are distinct without counting
// addresses. Anything else falls back to the two counters.
func coalesceScattered(addrs []uint64, size int) (segments, distinct int) {
	var segs [32]uint64
	for i, a := range addrs {
		first := a >> 7
		if (a+uint64(size)-1)>>7 != first {
			return segmentCount(addrs, size), distinctCount(addrs)
		}
		segs[i] = first
	}
	segments = distinctSet(segs[:len(addrs)])
	if segments == len(addrs) {
		return segments, len(addrs)
	}
	return segments, distinctSet(addrs)
}

// segmentCount returns the number of distinct aligned 128-byte segments
// touched by accesses of the given size at the given addresses.
func segmentCount(addrs []uint64, size int) int {
	if size <= 0 {
		size = 4
	}
	// Warp accesses are overwhelmingly lane-ordered strides, so the segment
	// sequence is almost always non-decreasing — duplicates are adjacent and
	// the distinct count is one plus the number of rises, in one pass.
	count := 0
	var prev uint64
	nondec := true
scan:
	for _, a := range addrs {
		first := a >> 7
		last := (a + uint64(size) - 1) >> 7
		for s := first; s <= last; s++ {
			switch {
			case count == 0:
				prev, count = s, 1
			case s > prev:
				prev = s
				count++
			case s < prev:
				nondec = false
				break scan
			}
		}
	}
	if nondec {
		return count
	}
	// Scattered accesses: with at most 64 candidate segments the count is an
	// exact distinct-set size — a small open-addressed hash computes it in
	// O(n). Beyond that (accesses spanning >2 segments each) defer to the
	// capacity-limited linear scan, which is the original semantics.
	total := 0
	for _, a := range addrs {
		total += int(((a+uint64(size)-1)>>7)-(a>>7)) + 1
	}
	if total <= 64 {
		var table [128]uint64
		var occ [2]uint64
		n := 0
		for _, a := range addrs {
			first := a >> 7
			last := (a + uint64(size) - 1) >> 7
			for s := first; s <= last; s++ {
				h := (s * 0x9e3779b97f4a7c15) >> 57 // 7 bits
				for {
					if occ[h>>6]&(1<<(h&63)) == 0 {
						occ[h>>6] |= 1 << (h & 63)
						table[h] = s
						n++
						break
					}
					if table[h] == s {
						break
					}
					h = (h + 1) & 127
				}
			}
		}
		return n
	}
	return segmentCountGeneral(addrs, size)
}

// segmentCountGeneral is the capacity-limited linear-scan fallback: segments
// beyond the 64 tracked slots are dedup-checked against the tracked set only,
// so duplicates of untracked segments count as new.
func segmentCountGeneral(addrs []uint64, size int) int {
	var segs [64]uint64
	n := 0
	for _, a := range addrs {
		first := a >> 7
		last := (a + uint64(size) - 1) >> 7
		for s := first; s <= last; s++ {
			found := false
			for i := 0; i < n && i < len(segs); i++ {
				if segs[i] == s {
					found = true
					break
				}
			}
			if !found {
				if n < len(segs) {
					segs[n] = s
				}
				n++
			}
		}
	}
	return n
}

// bankConflictCycles returns the number of shared-memory cycles one warp
// access takes: the maximum number of distinct 4-byte words requested from
// any single bank. Lanes reading the same word broadcast in one cycle.
func bankConflictCycles(offsets []uint64) int {
	var bankWords [32][4]uint64 // up to 4 distinct words tracked per bank
	var bankCount [32]int
	maxC := 1
	for _, off := range offsets {
		word := off >> 2
		bank := word % 32
		dup := false
		tracked := bankCount[bank]
		if tracked > 4 {
			tracked = 4
		}
		for i := 0; i < tracked; i++ {
			if bankWords[bank][i] == word {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if bankCount[bank] < 4 {
			bankWords[bank][bankCount[bank]] = word
		}
		bankCount[bank]++
		if bankCount[bank] > maxC {
			maxC = bankCount[bank]
		}
	}
	return maxC
}

// distinctCount returns the number of distinct addresses.
func distinctCount(addrs []uint64) int {
	if len(addrs) == 0 {
		return 0
	}
	// Fast paths for the two dominant warp access shapes: strictly
	// ascending lane-ordered strides (all distinct) and broadcasts from a
	// single location (one distinct). Both verify in one pass; the
	// quadratic set-insertion below handles everything else and computes
	// the same count.
	ascending, uniform := true, true
	for i := 1; i < len(addrs); i++ {
		if addrs[i] <= addrs[i-1] {
			ascending = false
		}
		if addrs[i] != addrs[0] {
			uniform = false
		}
	}
	if ascending {
		return len(addrs)
	}
	if uniform {
		return 1
	}
	return distinctSet(addrs)
}

// distinctSet counts the distinct values of a scattered set. A warp has at
// most 32 addresses, so a 64-slot open-addressed hash (occupancy bitmap, no
// clearing) counts the distinct set in O(n).
func distinctSet(addrs []uint64) int {
	var table [64]uint64
	var occ uint64
	distinct := 0
	for _, a := range addrs {
		h := (a * 0x9e3779b97f4a7c15) >> 58 // 6 bits
		for {
			if occ&(1<<h) == 0 {
				occ |= 1 << h
				table[h] = a
				distinct++
				break
			}
			if table[h] == a {
				break
			}
			h = (h + 1) & 63
		}
	}
	return distinct
}

// sameAddrExtra returns the extra serialization cost of atomics on duplicate
// addresses: total accesses minus distinct addresses.
func sameAddrExtra(addrs []uint64) int {
	var seen [32]uint64
	distinct := 0
	for _, a := range addrs {
		dup := false
		for i := 0; i < distinct; i++ {
			if seen[i] == a {
				dup = true
				break
			}
		}
		if !dup {
			seen[distinct] = a
			distinct++
		}
	}
	return len(addrs) - distinct
}
