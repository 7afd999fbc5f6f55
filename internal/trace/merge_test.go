package trace

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// uniformWarp builds 32 lanes that all perform the same ops with
// lane-strided addresses.
func uniformWarp(build func(lane int, l *LaneLog)) []*LaneLog {
	lanes := make([]*LaneLog, 32)
	for i := range lanes {
		lanes[i] = &LaneLog{}
		build(i, lanes[i])
	}
	return lanes
}

func TestCoalescedLoad(t *testing.T) {
	lanes := uniformWarp(func(lane int, l *LaneLog) {
		l.Global(KindLoad, uint64(lane*4), 4) // 32 x 4B consecutive = 1 segment
	})
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.GlobalTxns != 1 {
		t.Errorf("coalesced load: txns = %d, want 1", s.GlobalTxns)
	}
	if s.GlobalBytes != 128 {
		t.Errorf("bytes = %d, want 128", s.GlobalBytes)
	}
	if s.LoadSlots != 1 || s.Warps != 1 || s.DivergenceRatio() != 1 {
		t.Errorf("slots/warps/ratio = %d/%d/%f", s.LoadSlots, s.Warps, s.DivergenceRatio())
	}
	if s.CoalescingEfficiency() != 1 {
		t.Errorf("efficiency = %f, want 1", s.CoalescingEfficiency())
	}
}

func TestStridedLoadUncoalesced(t *testing.T) {
	lanes := uniformWarp(func(lane int, l *LaneLog) {
		l.Global(KindLoad, uint64(lane*128), 4) // each lane its own segment
	})
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.GlobalTxns != 32 {
		t.Errorf("strided load: txns = %d, want 32", s.GlobalTxns)
	}
	if eff := s.CoalescingEfficiency(); eff > 0.05 {
		t.Errorf("efficiency = %f, want 1/32", eff)
	}
}

func TestMisalignedCrossesSegments(t *testing.T) {
	lanes := uniformWarp(func(lane int, l *LaneLog) {
		l.Global(KindLoad, uint64(64+lane*4), 4) // straddles two segments
	})
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.GlobalTxns != 2 {
		t.Errorf("misaligned load: txns = %d, want 2", s.GlobalTxns)
	}
}

func TestWideAccessSpansSegments(t *testing.T) {
	lanes := uniformWarp(func(lane int, l *LaneLog) {
		l.Global(KindLoad, uint64(lane*8), 8) // 32 x 8B = 256B = 2 segments
	})
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.GlobalTxns != 2 {
		t.Errorf("8B loads: txns = %d, want 2", s.GlobalTxns)
	}
	if s.GlobalBytes != 256 {
		t.Errorf("bytes = %d, want 256", s.GlobalBytes)
	}
}

func TestRepeatedLoadScales(t *testing.T) {
	lanes := uniformWarp(func(lane int, l *LaneLog) {
		l.GlobalRep(KindLoad, uint64(lane*4), 4, 10)
	})
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.GlobalTxns != 10 || s.LoadSlots != 10 || s.GlobalBytes != 1280 {
		t.Errorf("rep load: txns/slots/bytes = %d/%d/%d, want 10/10/1280",
			s.GlobalTxns, s.LoadSlots, s.GlobalBytes)
	}
}

func TestMaskedTailIsNotSerialized(t *testing.T) {
	// Half the lanes do extra trailing work: the warp pays for the longer
	// path once, with the short lanes masked off (no serialization).
	lanes := uniformWarp(func(lane int, l *LaneLog) {
		if lane%2 == 0 {
			l.Compute(KindInt, 10)
		} else {
			l.Compute(KindInt, 10)
			l.Compute(KindFP32, 20)
		}
	})
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.IntInsts != 10 || s.FP32Insts != 20 {
		t.Errorf("insts int/fp32 = %d/%d, want 10/20 (masked)", s.IntInsts, s.FP32Insts)
	}
	if s.DivergenceRatio() != 1 {
		t.Errorf("divergence ratio = %f, want 1 (masking, not serialization)", s.DivergenceRatio())
	}
	if eff := s.SIMDEfficiency(); eff != 0.75 {
		t.Errorf("SIMD efficiency = %f, want 0.75", eff)
	}
}

func TestMaskedLoopCostsMaxTrips(t *testing.T) {
	// A loop with lane-dependent trip counts costs the maximum trip count.
	lanes := uniformWarp(func(lane int, l *LaneLog) {
		l.Compute(KindInt, 1+lane) // trips 1..32
	})
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.IntInsts != 32 {
		t.Errorf("int insts = %d, want 32 (max trips)", s.IntInsts)
	}
}

func TestBranchDivergenceSerializes(t *testing.T) {
	// Lanes executing different operation kinds at the same slot are on
	// distinct control-flow paths and serialize.
	lanes := uniformWarp(func(lane int, l *LaneLog) {
		if lane%2 == 0 {
			l.Compute(KindInt, 10)
		} else {
			l.Compute(KindFP32, 10)
		}
	})
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.IntInsts != 10 || s.FP32Insts != 10 {
		t.Errorf("insts int/fp32 = %d/%d, want 10/10 (both paths)", s.IntInsts, s.FP32Insts)
	}
	if s.DivergenceRatio() != 2 {
		t.Errorf("divergence ratio = %f, want 2", s.DivergenceRatio())
	}
}

func TestConvergentWarpSinglePath(t *testing.T) {
	lanes := uniformWarp(func(lane int, l *LaneLog) {
		l.Compute(KindFP64, 5)
		l.Sync()
	})
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.DivergenceRatio() != 1 || s.FP64Insts != 5 || s.Syncs != 1 {
		t.Errorf("ratio/fp64/syncs = %f/%d/%d, want 1/5/1", s.DivergenceRatio(), s.FP64Insts, s.Syncs)
	}
}

func TestInactiveLanes(t *testing.T) {
	lanes := make([]*LaneLog, 32)
	for i := 0; i < 7; i++ { // only 7 active lanes
		lanes[i] = &LaneLog{}
		lanes[i].Global(KindStore, uint64(i*4), 4)
	}
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.Warps != 1 || s.GlobalTxns != 1 || s.GlobalBytes != 28 {
		t.Errorf("warps/txns/bytes = %d/%d/%d, want 1/1/28", s.Warps, s.GlobalTxns, s.GlobalBytes)
	}
}

func TestAllInactive(t *testing.T) {
	lanes := make([]*LaneLog, 32)
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.Warps != 0 {
		t.Errorf("all-inactive warp counted: %+v", s)
	}
}

func TestSharedBankConflicts(t *testing.T) {
	cases := []struct {
		name   string
		offset func(lane int) uint64
		want   int64
	}{
		{"conflict-free", func(l int) uint64 { return uint64(l * 4) }, 1},
		{"2-way", func(l int) uint64 { return uint64((l % 16) * 2 * 4 * 32 / 32 * 8) }, 2},
		{"broadcast", func(l int) uint64 { return 0 }, 1},
		{"32-way", func(l int) uint64 { return uint64(l * 32 * 4) }, 32},
	}
	for _, c := range cases {
		lanes := uniformWarp(func(lane int, l *LaneLog) {
			l.Shared(c.offset(lane))
		})
		var s KernelStats
		MergeWarp(lanes, &s)
		if c.name == "2-way" {
			// stride-8 words: lanes map to 16 banks, 2 words each.
			if s.SharedCycles < 2 {
				t.Errorf("%s: cycles = %d, want >= 2", c.name, s.SharedCycles)
			}
			continue
		}
		if s.SharedCycles != c.want {
			t.Errorf("%s: cycles = %d, want %d", c.name, s.SharedCycles, c.want)
		}
	}
}

func TestAtomicContention(t *testing.T) {
	// All lanes hammer the same address: 31 extra serializations.
	lanes := uniformWarp(func(lane int, l *LaneLog) {
		l.Atomic(0x1000)
	})
	var s KernelStats
	MergeWarp(lanes, &s)
	if s.Atomics != 32 || s.AtomicConflicts != 31 {
		t.Errorf("same-addr atomics = %d conflicts = %d, want 32/31", s.Atomics, s.AtomicConflicts)
	}
	// Distinct addresses: no conflicts.
	lanes = uniformWarp(func(lane int, l *LaneLog) {
		l.Atomic(uint64(0x1000 + lane*4))
	})
	s = KernelStats{}
	MergeWarp(lanes, &s)
	if s.Atomics != 32 || s.AtomicConflicts != 0 {
		t.Errorf("distinct atomics = %d conflicts = %d, want 32/0", s.Atomics, s.AtomicConflicts)
	}
}

func TestStatsAddAndScale(t *testing.T) {
	a := KernelStats{Warps: 1, Slots: 2, Paths: 2, IntInsts: 3, GlobalTxns: 4, GlobalBytes: 5, Atomics: 6, Syncs: 7}
	b := a
	a.Add(&b)
	if a.Warps != 2 || a.IntInsts != 6 || a.GlobalTxns != 8 {
		t.Errorf("Add: %+v", a)
	}
	a.Scale(3)
	if a.Warps != 6 || a.IntInsts != 18 || a.Syncs != 42 {
		t.Errorf("Scale: %+v", a)
	}
}

// Property: transactions never exceed active lanes times segments-per-access
// and never fall below 1 for an active memory op; useful bytes never exceed
// fetched bytes.
func TestPropertyCoalescingBounds(t *testing.T) {
	f := func(seed uint64, size8 uint8) bool {
		size := int(size8%16) + 1
		lanes := uniformWarp(func(lane int, l *LaneLog) {
			a := (seed ^ uint64(lane)*2654435761) % (1 << 20)
			l.Global(KindLoad, a, size)
		})
		var s KernelStats
		MergeWarp(lanes, &s)
		maxSegs := int64(32 * (size/128 + 2))
		return s.GlobalTxns >= 1 && s.GlobalTxns <= maxSegs &&
			s.GlobalBytes == int64(32*size) &&
			s.CoalescingEfficiency() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: divergence ratio is always in [1, 32].
func TestPropertyDivergenceBounds(t *testing.T) {
	f := func(seed uint64) bool {
		lanes := uniformWarp(func(lane int, l *LaneLog) {
			n := int((seed>>uint(lane%8))%5) + 1
			l.Compute(KindInt, n)
		})
		var s KernelStats
		MergeWarp(lanes, &s)
		d := s.DivergenceRatio()
		return d >= 1 && d <= 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if KindLoad.String() != "load" || KindFP32.String() != "fp32" || Kind(200).String() != "unknown" {
		t.Error("kind names wrong")
	}
}

// TestCoalescingAccountingViolation constructs the impossible case — more
// useful bytes than the transactions could have fetched — and pins both
// behaviors: the clamp keeps the ratio at 1, and CheckAccounting reports
// the same state as an explicit error.
func TestCoalescingAccountingViolation(t *testing.T) {
	s := KernelStats{
		Warps: 1, Slots: 1, Paths: 1, LaneSlots: 32,
		LoadSlots: 1, GlobalTxns: 1, GlobalBytes: 256, // 256 useful > 128 fetched
	}
	if eff := s.CoalescingEfficiency(); eff != 1 {
		t.Errorf("production clamp: efficiency = %g, want 1", eff)
	}
	if err := s.CheckAccounting(); err == nil {
		t.Error("CheckAccounting accepted useful bytes exceeding fetched bytes")
	}

	// A consistent stats block passes both.
	ok := KernelStats{
		Warps: 1, Slots: 2, Paths: 2, LaneSlots: 64,
		LoadSlots: 1, StoreSlots: 1, GlobalTxns: 2, GlobalBytes: 256,
	}
	if err := ok.CheckAccounting(); err != nil {
		t.Errorf("consistent stats rejected: %v", err)
	}
	if eff := ok.CoalescingEfficiency(); eff != 1 {
		t.Errorf("consistent efficiency = %g, want 1", eff)
	}
}

// TestCheckAccountingCatalog walks the individually impossible counter
// combinations.
func TestCheckAccountingCatalog(t *testing.T) {
	cases := []struct {
		name string
		s    KernelStats
	}{
		{"bytes exceed fetch", KernelStats{Slots: 1, Paths: 1, LoadSlots: 1, GlobalTxns: 1, GlobalBytes: 129}},
		{"txns without slots", KernelStats{Slots: 1, Paths: 1, GlobalTxns: 3}},
		{"paths below slots", KernelStats{Slots: 4, Paths: 2}},
		{"lane-slots overflow", KernelStats{Slots: 1, Paths: 1, LaneSlots: 33}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.s.CheckAccounting(); err == nil {
				t.Errorf("%+v accepted", c.s)
			}
		})
	}
	if err := new(KernelStats).CheckAccounting(); err != nil {
		t.Errorf("zero stats rejected: %v", err)
	}
}

// mergeWarpRef is the two-level merge MergeWarp replaced, kept verbatim
// apart from reading the packed op through its accessors. The differential
// tests below hold MergeWarp to it bit for bit.
func mergeWarpRef(lanes []*LaneLog, stats *KernelStats) {
	maxLen := 0
	active := 0
	for _, l := range lanes {
		if l == nil || len(l.ops) == 0 {
			continue
		}
		active++
		if len(l.ops) > maxLen {
			maxLen = len(l.ops)
		}
	}
	if active == 0 {
		return
	}
	stats.Warps++

	var addrs [32]uint64
	var gKind [32]Kind
	var gSize [32]uint32
	// Per-slot lane cache: one pass over the lane logs copies the slot's
	// operations into stack arrays, so the grouping and per-group gather
	// below never chase lane-log pointers a second time. Lane order is
	// preserved, so every downstream array (addrs in particular) sees the
	// lanes in exactly the order the two-pass version produced.
	var cKind [32]Kind
	var cSize [32]uint32
	var cRep [32]uint32
	var cAddr [32]uint64
	nLanes := len(lanes)
	for slot := 0; slot < maxLen; slot++ {
		nGroups := 0
		laneCount := 0
		for i := 0; i < nLanes; i++ {
			l := lanes[i]
			if l == nil || slot >= len(l.ops) {
				continue
			}
			o := &l.ops[slot]
			cKind[laneCount] = o.kind()
			cSize[laneCount] = o.size()
			cRep[laneCount] = o.rep
			cAddr[laneCount] = o.addr
			laneCount++
			found := false
			for g := 0; g < nGroups; g++ {
				if gKind[g] == o.kind() && gSize[g] == o.size() {
					found = true
					break
				}
			}
			if !found {
				gKind[nGroups] = o.kind()
				gSize[nGroups] = o.size()
				nGroups++
			}
		}
		stats.Slots++
		stats.Paths += int64(nGroups)
		stats.LaneSlots += int64(laneCount)

		for g := 0; g < nGroups; g++ {
			kind, size := gKind[g], gSize[g]
			// Gather this group's lanes: max repeat and addresses.
			var maxRep int64
			n := 0
			for i := 0; i < laneCount; i++ {
				if cKind[i] != kind || cSize[i] != size {
					continue
				}
				if int64(cRep[i]) > maxRep {
					maxRep = int64(cRep[i])
				}
				addrs[n] = cAddr[i]
				n++
			}
			switch kind {
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
				txns := int64(segmentCount(addrs[:n], int(size)))
				stats.GlobalTxns += txns * maxRep
				// Useful bytes are counted over DISTINCT addresses: lanes
				// broadcasting from one location consume one fetch.
				useful := int64(size) * int64(distinctCount(addrs[:n]))
				if cap := txns * 128; useful > cap {
					useful = cap
				}
				stats.GlobalBytes += useful * maxRep
				if kind == KindLoad {
					stats.LoadSlots += maxRep
				} else {
					stats.StoreSlots += maxRep
				}
			case KindShared:
				stats.SharedSlots += maxRep
				stats.SharedCycles += int64(bankConflictCycles(addrs[:n])) * maxRep
			case KindAtomic:
				stats.Atomics += int64(n) * maxRep
				stats.AtomicConflicts += int64(sameAddrExtra(addrs[:n])) * maxRep
			}
		}
	}
}

// Warp shapes the differential test cycles through; every generated warp
// also mixes in the others at random.
const (
	shapeConvergent = iota
	shapeDivergent
	shapeMaskedTail
	shapeNilLanes
	shapeBroadcast
	shapeScattered
	shapeWide
	numShapes
)

// randomWarp fills lanes (reset first) with one random warp biased towards
// the given shape. Lanes set to nil stay nil; the caller restores them.
func randomWarp(r *rand.Rand, lanes []*LaneLog, shape int) {
	sizes := []int{1, 4, 8, 48, 200}
	slots := 1 + r.Intn(10)
	type tmpl struct {
		kind      Kind
		size, rep int
		base      uint64
		stride    uint64
	}
	for _, l := range lanes {
		l.Reset()
	}
	for s := 0; s < slots; s++ {
		// Up to three alternative operations per slot; divergent lanes pick
		// among them, convergent ones all take the first.
		var alt [3]tmpl
		for i := range alt {
			t := tmpl{kind: Kind(r.Intn(9)), size: 4, rep: 1 + r.Intn(4)}
			if shape == shapeWide || r.Intn(4) == 0 {
				t.size = sizes[r.Intn(len(sizes))]
			}
			t.base = uint64(r.Intn(1 << 12))
			switch {
			case shape == shapeBroadcast || r.Intn(6) == 0:
				t.stride = 0
			case shape == shapeWide:
				t.stride = uint64(t.size)
			default:
				t.stride = uint64([]int{4, 8, 128, t.size}[r.Intn(4)])
			}
			alt[i] = t
		}
		nAlt := 1
		if shape == shapeDivergent || r.Intn(5) == 0 {
			nAlt = 2 + r.Intn(2)
		}
		scattered := shape == shapeScattered || r.Intn(5) == 0
		for ln, l := range lanes {
			t := alt[0]
			if nAlt > 1 {
				t = alt[r.Intn(nAlt)]
			}
			addr := t.base + uint64(ln)*t.stride
			if scattered {
				addr = uint64(r.Intn(1 << uint(4+r.Intn(12))))
			}
			switch t.kind {
			case KindLoad, KindStore:
				l.GlobalRep(t.kind, addr, t.size, t.rep)
			case KindShared:
				l.SharedRep(addr, t.rep)
			case KindAtomic:
				l.Atomic(addr)
			case KindSync:
				l.Sync()
			default:
				l.Compute(t.kind, t.rep)
			}
		}
	}
	if shape == shapeMaskedTail || r.Intn(4) == 0 {
		for _, l := range lanes {
			l.ops = l.ops[:r.Intn(len(l.ops)+1)]
		}
	}
	if shape == shapeNilLanes || r.Intn(4) == 0 {
		for i := range lanes {
			switch r.Intn(4) {
			case 0:
				lanes[i] = nil
			case 1:
				lanes[i].Reset()
			}
		}
	}
}

// TestMergeWarpMatchesReference holds the single-pass merge to the
// reference on 100k seeded random warps covering every shape.
func TestMergeWarpMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	logs := make([]*LaneLog, 32)
	for i := range logs {
		logs[i] = &LaneLog{}
	}
	lanes := make([]*LaneLog, 32)
	for w := 0; w < 100_000; w++ {
		copy(lanes, logs)
		randomWarp(r, lanes, w%numShapes)
		var got, want KernelStats
		MergeWarp(lanes, &got)
		mergeWarpRef(lanes, &want)
		if got != want {
			t.Fatalf("warp %d (shape %d): MergeWarp %+v, reference %+v", w, w%numShapes, got, want)
		}
	}
}

// warpFromBytes decodes a fuzz input into a warp: per lane a length byte
// (7 = nil lane), then per op a kind/size byte, a repeat byte and two
// address bytes. Addresses are lane-ordered, broadcast, scattered or at the
// top of the address space, so the coalescing fast paths and their
// fallbacks all see fuzzed input.
func warpFromBytes(data []byte) []*LaneLog {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	sizes := [8]int{0, 1, 4, 8, 16, 48, 200, 4}
	lanes := make([]*LaneLog, 32)
	for ln := range lanes {
		if len(data) == 0 {
			break
		}
		n := int(next() % 8)
		if n == 7 {
			continue
		}
		l := &LaneLog{}
		for i := 0; i < n; i++ {
			ks, rep, a, mode := next(), next(), uint64(next()), next()
			var addr uint64
			switch mode % 4 {
			case 0:
				addr = a*4 + uint64(ln)*uint64(sizes[ks>>5])
			case 1:
				addr = a << 4
			case 2:
				addr = a<<8 | uint64(mode)
			default:
				addr = ^uint64(0) - a
			}
			l.record(Kind(ks%10), sizes[ks>>5], uint32(rep%5), addr)
		}
		lanes[ln] = l
	}
	return lanes
}

func FuzzMergeWarp(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 32*(1+4*4))
		r.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		lanes := warpFromBytes(data)
		var got, want KernelStats
		MergeWarp(lanes, &got)
		mergeWarpRef(lanes, &want)
		if got != want {
			t.Fatalf("MergeWarp %+v, reference %+v", got, want)
		}
	})
}

// TestRecordRejectsOversizedAccess: a size the packed 24-bit field cannot
// hold must panic, naming the size, instead of aliasing a smaller one.
func TestRecordRejectsOversizedAccess(t *testing.T) {
	var l LaneLog
	l.Global(KindLoad, 0, maxOpSize) // the largest size still fits
	if got := l.ops[0].size(); got != maxOpSize || l.ops[0].kind() != KindLoad {
		t.Fatalf("packed op = kind %v size %d, want load %d", l.ops[0].kind(), got, maxOpSize)
	}
	for _, size := range []int{maxOpSize + 1, 1 << 32} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, strconv.Itoa(size)) {
					t.Errorf("size %d: panic %q does not name the size", size, msg)
				}
			}()
			l.Global(KindStore, 0, size)
			t.Errorf("size %d recorded without a panic", size)
		}()
	}
}

var benchStats KernelStats

// BenchmarkMergeWarp times one warp merge for three shapes: a convergent
// coalesced tile loop, a scattered gather, and an MST-like divergent warp
// (per-lane loops of varying length with interleaved atomics).
func BenchmarkMergeWarp(b *testing.B) {
	shapes := []struct {
		name  string
		build func(lane int, l *LaneLog)
	}{
		{"convergent", func(lane int, l *LaneLog) {
			for i := 0; i < 16; i++ {
				l.Global(KindLoad, uint64(i*4096+lane*4), 4)
				l.Compute(KindFP32, 8)
				l.Shared(uint64(lane * 4))
			}
		}},
		{"scattered", func(lane int, l *LaneLog) {
			x := uint64(lane)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < 16; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				l.Global(KindLoad, x%(1<<24)&^3, 4)
				l.Compute(KindInt, 2)
			}
		}},
		{"divergent", func(lane int, l *LaneLog) {
			for i := 0; i < 4+lane%7*3; i++ {
				l.Global(KindLoad, uint64(lane*64+i*8), 8)
				l.Compute(KindInt, 3)
				if (lane+i)%3 == 0 {
					l.Atomic(uint64(i % 4 * 4))
				}
			}
		}},
	}
	for _, s := range shapes {
		lanes := uniformWarp(s.build)
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MergeWarp(lanes, &benchStats)
			}
		})
	}
}
