package sim

import (
	"math"

	"repro/internal/kepler"
	"repro/internal/trace"
)

// issueCycles returns the SM issue cycles a set of warp instructions needs
// on the given device, limited by the most contended functional-unit class.
// Barriers add a fixed drain cost.
func issueCycles(d *kepler.Device, s *trace.KernelStats) float64 {
	ldst := float64(s.LoadSlots+s.StoreSlots+s.Atomics) + float64(s.SharedCycles)
	cyc := float64(s.TotalIssueSlots()) / d.Rates.Issue
	cyc = math.Max(cyc, float64(s.IntInsts)/d.Rates.Int)
	cyc = math.Max(cyc, float64(s.FP32Insts)/d.Rates.FP32)
	cyc = math.Max(cyc, float64(s.FP64Insts)/d.Rates.FP64)
	cyc = math.Max(cyc, float64(s.SFUInsts)/d.Rates.SFU)
	cyc = math.Max(cyc, ldst/d.Rates.LDST)
	// Barriers stall the warp briefly; most of the latency is hidden by
	// other resident warps, so only a small issue cost remains.
	cyc += float64(s.Syncs) * 4
	return cyc
}

// launchSchedule is the clock-independent half of the compute-side timing
// model: how a launch's blocks pack onto the device's block slots. It depends
// only on the SM count, the occupancy and the per-block issue cycles, so the
// launch path derives it once and a captured launch keeps it for every replay.
type launchSchedule struct {
	// bps is the actual number of resident blocks per SM: a grid smaller
	// than the device's capacity leaves slots empty.
	bps int
	// makespan is the listSchedule makespan over SMs*bps slots, in
	// per-block exclusive cycles.
	makespan float64
	// sumCycles is the sum of the per-block issue cycles, in block order.
	sumCycles float64
}

// blockSchedule list-schedules the per-block issue cycles onto sms*bps
// concurrent block slots. Irregular kernels with imbalanced blocks therefore
// show a real makespan tail.
func blockSchedule(sms int, occ kepler.Occupancy, blockCycles []float64) launchSchedule {
	bps := occ.BlocksPerSM
	if g := (len(blockCycles) + sms - 1) / sms; g < bps && g > 0 {
		bps = g
	}
	s := launchSchedule{bps: bps, makespan: listSchedule(blockCycles, sms*bps)}
	for _, c := range blockCycles {
		s.sumCycles += c
	}
	return s
}

// kernelTime computes the duration of one kernel execution from its merged
// statistics and its block schedule (blockSchedule over the same device's SM
// count). The model is a roofline with occupancy-dependent compute/memory
// overlap:
//
//   - The compute side takes the schedule's makespan, each slot issuing at
//     the SM rate shared among resident blocks.
//   - The memory side is the larger of the bandwidth time (transactions *
//     128 B over the configuration's bandwidth) and the latency-concurrency
//     time (Little's law over the resident warps' outstanding requests).
//     ECC inflates scattered access streams beyond the bandwidth loss,
//     because each isolated transaction drags its ECC word along.
//   - Atomics are serviced at a device-wide rate in the core-clock domain,
//     with same-address conflicts serialized.
func kernelTime(clk kepler.Clocks, occ kepler.Occupancy, s *trace.KernelStats, sched launchSchedule) (total, tCore, tMem float64) {
	desc := clk.Device()
	coreHz := clk.CoreHz()
	sms := clk.SMCount()

	bps := sched.bps
	warpsPerBlock := occ.WarpsPerSM / occ.BlocksPerSM
	if warpsPerBlock < 1 {
		warpsPerBlock = 1
	}
	actualWarpsPerSM := bps * warpsPerBlock
	if actualWarpsPerSM > occ.WarpsPerSM {
		actualWarpsPerSM = occ.WarpsPerSM
	}

	// Compute side: issue-efficiency rises with resident warps per SM.
	issueEff := float64(actualWarpsPerSM) / 10
	if issueEff > 1 {
		issueEff = 1
	}
	if issueEff < 0.08 {
		issueEff = 0.08
	}
	// A slot issues at the SM rate divided among resident blocks; the
	// makespan is in per-block exclusive cycles, so scale by the sharing
	// factor.
	tCore = sched.makespan * float64(bps) / (coreHz * issueEff)
	// Guard: aggregate throughput bound (whole-device issue).
	aggregate := sched.sumCycles / (float64(sms) * coreHz * issueEff)
	if aggregate > tCore {
		tCore = aggregate
	}
	// Pipeline fill/drain.
	tCore += 2000 / coreHz

	// Memory side.
	txns := float64(s.GlobalTxns)
	if clk.ECC {
		// Scattered transactions can't amortize ECC-word fetches.
		txns *= 1 + desc.ECC.BandwidthPenalty*(1-s.CoalescingEfficiency())
	}
	tMemBW := txns * float64(desc.SegmentBytes) / clk.MemBandwidth()
	residentWarps := float64(sms * actualWarpsPerSM)
	if total := float64(s.Warps); total < residentWarps && total > 0 {
		residentWarps = total
	}
	concurrency := residentWarps * float64(desc.MaxOutstandingPerWarp)
	if concurrency < 1 {
		concurrency = 1
	}
	tMemLat := txns * clk.MemLatency() / concurrency
	tMem = math.Max(tMemBW, tMemLat)

	// Atomics: device-wide service rate; same-address lanes serialize at
	// the L2's one-op-per-cycle replay rate (warp-wide atomicAdd bursts are
	// cheap, a histogram hot bin still costs).
	tAtomic := (float64(s.Atomics)/16 + float64(s.AtomicConflicts)*2) / coreHz
	tMem += tAtomic

	// Overlap: high occupancy hides the smaller side behind the larger.
	overlap := 0.50 + 0.45*math.Sqrt(occ.Fraction)
	if overlap > 0.97 {
		overlap = 0.97
	}
	total = math.Max(tCore, tMem) + (1-overlap)*math.Min(tCore, tMem)
	return total, tCore, tMem
}

// listSchedule greedily assigns costs to p processors in order, returning
// the makespan (max processor load). The least-loaded slot is tracked in a
// min-heap ordered by (load, slot index) — lexicographic ties resolve to the
// lowest index, which is exactly the slot a linear first-minimum scan would
// pick, so the assignment sequence (and hence every float accumulation) is
// bit-identical to the O(blocks x slots) scan this replaces (see
// listScheduleLinear and TestListScheduleHeapMatchesLinear). Grids run to
// tens of thousands of blocks over up to 208 slots on every launch, so the
// log(p) update matters.
//
// A launch's leading run of equal costs skips the heap a full round at a
// time. From p equal loads L, placing p equal costs c >= 0 leaves every
// load at L+c again: for L+c > L each placement fills the lowest-index slot
// still at L (round robin), and for L+c == L every slot already holds L+c.
// So each full round of the run adds c to one base load, the same float
// addition the heap would make on every slot, and the heap starts after the
// last full round with every load at that base. Which slot the heap picks
// next depends only on the (load, index) pairs, never on their positions in
// the heap array, so the rest of the schedule is unchanged.
func listSchedule(costs []float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	if len(costs) == 0 {
		return 0
	}
	if p > len(costs) {
		p = len(costs)
	}
	if p == 1 {
		var sum float64
		for _, c := range costs {
			sum += c
		}
		return sum
	}
	var base float64
	start := 0
	if c := costs[0]; c >= 0 {
		run := 1
		for run < len(costs) && math.Float64bits(costs[run]) == math.Float64bits(c) {
			run++
		}
		for ; start+p <= run; start += p {
			base += c
		}
	}
	h := slotHeap{load: make([]float64, p), idx: make([]int32, p)}
	for i := range h.idx {
		// Equal loads with ascending indices: a valid (load, idx) min-heap
		// by construction, since a parent's array position — and therefore
		// its index — is always below its children's.
		h.load[i] = base
		h.idx[i] = int32(i)
	}
	for _, c := range costs[start:] {
		h.load[0] += c // root is the least-loaded slot
		h.siftDown()
	}
	var max float64
	for _, l := range h.load {
		if l > max {
			max = l
		}
	}
	return max
}

// slotHeap is a binary min-heap of block slots keyed by (load, slot index).
type slotHeap struct {
	load []float64
	idx  []int32
}

// less orders slots by load, then by original slot index (the tie-break that
// matches a first-minimum linear scan).
func (h *slotHeap) less(a, b int) bool {
	if h.load[a] != h.load[b] {
		return h.load[a] < h.load[b]
	}
	return h.idx[a] < h.idx[b]
}

// siftDown restores the heap property after the root's load was increased.
func (h *slotHeap) siftDown() {
	i := 0
	n := len(h.load)
	for {
		s := i
		if l := 2*i + 1; l < n && h.less(l, s) {
			s = l
		}
		if r := 2*i + 2; r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			return
		}
		h.load[i], h.load[s] = h.load[s], h.load[i]
		h.idx[i], h.idx[s] = h.idx[s], h.idx[i]
		i = s
	}
}

// listScheduleLinear is the O(len(costs) x p) reference implementation the
// heap version must match bit for bit; it is kept for the equivalence test
// and the microbenchmark.
func listScheduleLinear(costs []float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	if len(costs) == 0 {
		return 0
	}
	if p > len(costs) {
		p = len(costs)
	}
	load := make([]float64, p)
	for _, c := range costs {
		minI := 0
		for i := 1; i < p; i++ {
			if load[i] < load[minI] {
				minI = i
			}
		}
		load[minI] += c
	}
	var max float64
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}
