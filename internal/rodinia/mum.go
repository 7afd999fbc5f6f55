package rodinia

import (
	"context"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// MUM is MUMmerGPU: local sequence alignment that matches many query reads
// against a reference sequence stored as a suffix tree. Each thread walks
// the tree for its query — pointer chasing through scattered node records
// with heavy branch divergence, the archetypal irregular memory-bound code.
// The paper's inputs are 25bp and 100bp read sets; the 25bp set was too
// fast to measure at 324 MHz.
type MUM struct{ core.Meta }

// NewMUM constructs the MUMmerGPU benchmark.
func NewMUM() *MUM {
	return &MUM{core.Meta{
		ProgName:    "MUM",
		ProgSuite:   core.SuiteRodinia,
		Desc:        "suffix-tree read alignment (MUMmerGPU)",
		Kernels:     3,
		InputNames:  []string{"25bp", "100bp"},
		Default:     "100bp",
		IsIrregular: true,
	}}
}

const (
	mumRefLen   = 12000
	mumQueries  = 6000
	mumMinMatch = 8
	mumScale    = 9000.0 // the real read sets are millions of reads
)

// Run aligns the read set and validates maximal match lengths against the
// brute-force reference.
func (p *MUM) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	readLen := 100
	if input == "25bp" {
		readLen = 25
	}
	// The 25bp and 100bp read sets are the same file size (more, shorter
	// reads), so both scale identically.
	dev.SetTimeScale(mumScale)

	ref := randDNA(mumRefLen, xrand.HashString("mum-ref"))
	st := newSuffixTree(ref)
	rng := xrand.New(xrand.HashString("mum-reads-" + input))

	// Reads: half are noisy copies of reference windows (real matches),
	// half are random (few matches).
	reads := make([][]byte, mumQueries)
	for i := range reads {
		if i%2 == 0 {
			off := rng.Intn(mumRefLen - readLen)
			r := append([]byte(nil), ref[off:off+readLen]...)
			for k := 0; k < readLen/20; k++ {
				r[rng.Intn(readLen)] = "ACGT"[rng.Intn(4)]
			}
			reads[i] = r
		} else {
			reads[i] = randDNA(readLen, rng.Uint64())
		}
	}

	dTree := dev.NewArray(st.nodes(), 32)
	dReads := dev.NewArray(mumQueries*readLen, 1)
	dOut := dev.NewArray(mumQueries*readLen, 2)

	// Kernel 1: upload/reorder reads (texture packing).
	dev.Launch("printKernel", (mumQueries+255)/256, 256, func(c *sim.Ctx) {
		i := c.TID()
		if i >= mumQueries {
			return
		}
		c.LoadRep(dReads.At(i*readLen), 4, readLen/4)
		c.IntOps(readLen / 2)
		c.StoreRep(dReads.At(i*readLen), 4, readLen/4)
	})

	// Kernel 2: the alignment kernel — per query, walk the suffix tree from
	// every starting offset.
	best := make([]int, mumQueries)
	dev.Launch("mummergpuKernel", (mumQueries+127)/128, 128, func(c *sim.Ctx) {
		q := c.TID()
		if q >= mumQueries {
			return
		}
		read := reads[q]
		c.LoadRep(dReads.At(q*readLen), 4, readLen/4)
		totalHops := 0
		bestLen := 0
		h := uint64(q) * 2654435761
		for from := 0; from+mumMinMatch <= len(read); from++ {
			l, hops := st.matchLen(read, from)
			totalHops += hops
			if l > bestLen {
				bestLen = l
			}
		}
		best[q] = bestLen
		// Every tree hop is a scattered 32-byte node fetch plus character
		// compares; divergence comes from per-query walk lengths.
		for k := 0; k < totalHops; k++ {
			h = h*6364136223846793005 + 1442695040888963407
			c.Load(dTree.At(int(h%uint64(st.nodes()))), 32)
		}
		c.IntOps(6 * totalHops)
		c.StoreRep(dOut.At(q*readLen), 2, readLen/8)
	})
	// Kernel 3: post-process match list (compaction).
	dev.Launch("printAlignments", (mumQueries+255)/256, 256, func(c *sim.Ctx) {
		i := c.TID()
		if i >= mumQueries {
			return
		}
		c.LoadRep(dOut.At(i*readLen), 4, readLen/8)
		c.IntOps(readLen / 4)
	})

	// Validate sampled queries against the brute-force maximal match.
	for _, q := range []int{0, 1, mumQueries / 2, mumQueries - 1} {
		want := 0
		for from := 0; from+mumMinMatch <= len(reads[q]); from++ {
			if l := naiveMatchLenRef(ref, reads[q], from); l > want {
				want = l
			}
		}
		if best[q] != want {
			return core.Validatef(p.Name(), "query %d best match %d, want %d", q, best[q], want)
		}
	}
	return nil
}

// randDNA generates a random sequence over the DNA alphabet.
func randDNA(n int, seed uint64) []byte {
	rng := xrand.New(seed)
	const alpha = "ACGT"
	s := make([]byte, n)
	for i := range s {
		s[i] = alpha[rng.Intn(4)]
	}
	return s
}

// naiveMatchLenRef is the brute-force longest prefix of q[from:] in ref.
func naiveMatchLenRef(ref, q []byte, from int) int {
	best := 0
	for start := 0; start < len(ref); start++ {
		l := 0
		for from+l < len(q) && start+l < len(ref) && ref[start+l] == q[from+l] {
			l++
		}
		if l > best {
			best = l
		}
	}
	return best
}
