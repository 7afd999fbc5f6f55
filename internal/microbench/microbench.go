// Package microbench holds the energy-calibration microbenchmark suite, in
// the spirit of the CUDA latency/bandwidth probes (pointer-chase dependent
// loads, strided linear stores, L1/L2/DRAM-targeted working sets): tiny
// kernels whose per-class instruction counts are exactly predictable, so
// each one pins one entry of the device's kepler.EnergyTable to an
// observable invariant. internal/check's calibration checkers assert those
// invariants against the attribution pass (see DESIGN.md, "Energy
// attribution").
//
// The microbenchmarks are real, self-validating programs on the simulated
// device, registered in internal/suites by name — but they are additive:
// they never join the paper's 34-program battery, so the golden corpus and
// every pinned experiment output are untouched.
package microbench

import (
	"context"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Programs returns the calibration microbenchmarks.
func Programs() []core.Program {
	return []core.Program{NewPointerChase(), NewStridedStore(), NewFMAChain()}
}

// PointerChase is the load-latency probe: one warp walks a random
// permutation cycle of 128-byte nodes, one dependent load per step, the
// whole warp reading the same node (one coalesced transaction per load
// slot). The chain length is the same for every working set, so the l1/l2/
// dram inputs differ only in the address range — which pins two facts:
// LDSTJ prices a load slot (the ldst class is exactly LoadSlots x ldstJ x
// V² x EnergyScale), and the energy model has a flat memory hierarchy (the
// three working sets charge bit-identical energy; only latency could ever
// differ).
type PointerChase struct{ core.Meta }

// NewPointerChase constructs the load-latency probe.
func NewPointerChase() *PointerChase {
	return &PointerChase{core.Meta{
		ProgName:   "MB-PCHASE",
		ProgSuite:  core.SuiteMicro,
		Desc:       "pointer-chase dependent-load latency probe (pins ldstJ; L1/L2/DRAM working sets)",
		Kernels:    1,
		InputNames: []string{"l1", "l2", "dram"},
		Default:    "dram",
	}}
}

const (
	pchaseNodeBytes = 128  // one coalescing segment per node
	pchaseSteps     = 4096 // chain length, identical for every working set
	pchaseReps      = 60000
)

// pchaseNodes maps the input name to the working-set node count.
func pchaseNodes(input string) int {
	switch input {
	case "l1":
		return 16 * 1024 / pchaseNodeBytes // 16 KB: L1-resident
	case "l2":
		return 1024 * 1024 / pchaseNodeBytes // 1 MB: L2-resident
	default:
		return 64 * 1024 * 1024 / pchaseNodeBytes // 64 MB: DRAM
	}
}

// Run walks the permutation chain and validates the cycle structure.
func (p *PointerChase) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	n := pchaseNodes(input)

	// Sattolo's algorithm: a uniform single-cycle permutation, so the chase
	// cannot short-circuit and every step is a dependent load.
	next := make([]int, n)
	for i := range next {
		next[i] = i
	}
	rng := xrand.New(xrand.HashString("pchase/" + input))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}

	nodes := dev.NewArray(n*pchaseNodeBytes/4, 4)
	visited := 0
	l := dev.Launch("chase", 1, 32, func(c *sim.Ctx) {
		cur := 0
		for step := 0; step < pchaseSteps; step++ {
			// All 32 lanes read the current node's 128-byte line: one
			// transaction per load slot, coalescing efficiency exactly 1.
			c.Load(nodes.At(cur*(pchaseNodeBytes/4)+c.Lane()), 4)
			c.IntOps(1) // next-pointer address arithmetic
			cur = next[cur%n]
			if c.Thread == 0 {
				visited++
			}
		}
	})
	dev.Repeat(l, pchaseReps)

	// Validate the permutation is one full cycle: walking n steps from node
	// 0 must visit n distinct nodes and return to 0.
	seen := make([]bool, n)
	cur := 0
	for i := 0; i < n; i++ {
		if seen[cur] {
			return core.Validatef(p.Name(), "chain revisits node %d after %d steps", cur, i)
		}
		seen[cur] = true
		cur = next[cur]
	}
	if cur != 0 {
		return core.Validatef(p.Name(), "chain of %d steps ends at %d, want 0", n, cur)
	}
	if visited != pchaseSteps {
		return core.Validatef(p.Name(), "walked %d steps, want %d", visited, pchaseSteps)
	}
	return nil
}

// StridedStore is the store-bandwidth probe: every thread writes one float
// at thread-index x stride, so a warp's 32 lanes span exactly stride
// coalescing segments. Doubling the stride doubles GlobalTxns exactly while
// every compute-class count is unchanged — which pins TxnJ: the dram class
// is effective-transactions x txnJ x EnergyScale, with the effective count
// following the model's row-locality inflation of the exact 1/stride
// coalescing efficiency.
type StridedStore struct{ core.Meta }

// NewStridedStore constructs the store-bandwidth probe.
func NewStridedStore() *StridedStore {
	return &StridedStore{core.Meta{
		ProgName:   "MB-STRIDE",
		ProgSuite:  core.SuiteMicro,
		Desc:       "strided-store bandwidth probe (pins txnJ; stride doubles transactions)",
		Kernels:    1,
		InputNames: []string{"s1", "s2", "s4", "s8"},
		Default:    "s1",
	}}
}

const (
	strideBlocks  = 32
	strideThreads = 256
	strideStores  = 64 // back-to-back stores per thread per execution
	strideReps    = 16000
)

// strideOf maps the input name to the element stride.
func strideOf(input string) int {
	switch input {
	case "s2":
		return 2
	case "s4":
		return 4
	case "s8":
		return 8
	default:
		return 1
	}
}

// Run streams the strided store pattern and validates the written mirror.
func (p *StridedStore) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	stride := strideOf(input)
	threads := strideBlocks * strideThreads
	out := make([]float32, threads*stride)
	dOut := dev.NewArray(len(out), 4)

	l := dev.Launch("strideStore", strideBlocks, strideThreads, func(c *sim.Ctx) {
		i := c.TID()
		idx := i * stride
		out[idx] = float32(i) * 0.5
		c.IntOps(4)  // index arithmetic
		c.FP32Ops(8) // value computation, identical across strides
		c.StoreRep(dOut.At(idx), 4, strideStores)
	})
	dev.Repeat(l, strideReps)

	for i := 0; i < threads; i++ {
		if got, want := out[i*stride], float32(i)*0.5; got != want {
			return core.Validatef(p.Name(), "out[%d] = %g, want %g", i*stride, got, want)
		}
	}
	return nil
}

// FMAChain is the compute probe: a pure FP32 multiply-add chain with no
// global-memory traffic at all, so the dram and ldst classes are exactly
// zero and the fp32 class is exactly FP32Insts x fp32J x V² x EnergyScale —
// which pins FP32J. The 2x input doubles the chain length, and with it the
// fp32 count and energy, bit-exactly.
type FMAChain struct{ core.Meta }

// NewFMAChain constructs the FP32 compute probe.
func NewFMAChain() *FMAChain {
	return &FMAChain{core.Meta{
		ProgName:   "MB-FMA",
		ProgSuite:  core.SuiteMicro,
		Desc:       "register-resident FP32 multiply-add chain (pins fp32J; no memory traffic)",
		Kernels:    1,
		InputNames: []string{"1x", "2x"},
		Default:    "1x",
	}}
}

const (
	fmaBlocks  = 64
	fmaThreads = 256
	fmaIters   = 512 // chain length at 1x
	fmaReps    = 40000
)

// Run iterates the multiply-add chain per thread and validates thread 0's
// result against an independent recomputation.
func (p *FMAChain) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	iters := fmaIters
	if input == "2x" {
		iters *= 2
	}
	const a, b = float32(1.0000001), float32(1e-7)
	var result float32

	l := dev.Launch("fmaChain", fmaBlocks, fmaThreads, func(c *sim.Ctx) {
		x := float32(c.TID()) * 1e-6
		for k := 0; k < iters; k++ {
			x = x*a + b
		}
		c.IntOps(2)
		c.FP32Ops(iters) // one FMA warp instruction per chain step
		if c.TID() == 0 {
			result = x
		}
	})
	dev.Repeat(l, fmaReps)

	want := float32(0)
	for k := 0; k < iters; k++ {
		want = want*a + b
	}
	if result != want {
		return core.Validatef(p.Name(), "fma chain = %g, want %g", result, want)
	}
	return nil
}
