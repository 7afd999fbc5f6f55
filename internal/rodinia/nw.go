package rodinia

import (
	"context"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// NW is Needleman-Wunsch global sequence alignment: the DP matrix fills
// along anti-diagonals, one kernel launch per diagonal band of tiles. Early
// and late diagonals underutilize the GPU; the tile interiors run out of
// shared memory. Memory bound with a wavefront launch pattern.
type NW struct{ core.Meta }

// NewNW constructs the Needleman-Wunsch benchmark.
func NewNW() *NW {
	return &NW{core.Meta{
		ProgName:   "NW",
		ProgSuite:  core.SuiteRodinia,
		Desc:       "Needleman-Wunsch DP alignment via diagonal wavefronts",
		Kernels:    2,
		InputNames: []string{"4096", "16384"},
		Default:    "16384",
	}}
}

const (
	nwTile    = 16
	nwPenalty = -1
	nwPasses  = 4000
)

func nwSize(input string) (simN int, realN float64) {
	switch input {
	case "4096":
		return 512, 4096
	default: // 16384
		return 1024, 16384
	}
}

// Run aligns two random sequences and validates the full DP matrix score
// against a sequential reference.
func (p *NW) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	n, realN := nwSize(input)
	// DP work is O(n^2).
	ratio := realN / float64(n)
	dev.SetTimeScale(ratio * ratio / 16 * nwPasses)

	rng := xrand.New(xrand.HashString("nw-" + input))
	seqA := make([]int32, n)
	seqB := make([]int32, n)
	for i := 0; i < n; i++ {
		seqA[i] = int32(rng.Intn(4))
		seqB[i] = int32(rng.Intn(4))
	}
	score := func(a, b int32) int32 {
		if a == b {
			return 3
		}
		return -2
	}

	// DP matrix with boundary row/col.
	dp := make([]int32, (n+1)*(n+1))
	for i := 0; i <= n; i++ {
		dp[i*(n+1)] = int32(i * nwPenalty)
		dp[i] = int32(i * nwPenalty)
	}

	dDP := dev.NewArray((n+1)*(n+1), 4)
	dRef := dev.NewArray(n*n, 4)

	tiles := n / nwTile

	// Kernel 1 processes the upper-left triangle of tile diagonals, kernel
	// 2 the lower-right (as in Rodinia's needle.cu).
	processDiag := func(name string, count int, firstBx func(k int) (int, int)) {
		dev.LaunchShared(name, count, nwTile*nwTile, (nwTile+1)*(nwTile+1)*4, func(c *sim.Ctx) {
			bi, bj := firstBx(c.Block)
			x0 := bi * nwTile
			y0 := bj * nwTile
			tx := c.Thread % nwTile
			ty := c.Thread / nwTile
			// Host mirror: thread (0,0) fills the whole tile serially (the
			// GPU does it in anti-diagonal steps with barriers).
			if tx == 0 && ty == 0 {
				for i := y0 + 1; i <= y0+nwTile; i++ {
					for j := x0 + 1; j <= x0+nwTile; j++ {
						up := dp[(i-1)*(n+1)+j] + nwPenalty
						left := dp[i*(n+1)+j-1] + nwPenalty
						diag := dp[(i-1)*(n+1)+j-1] + score(seqA[j-1], seqB[i-1])
						best := up
						if left > best {
							best = left
						}
						if diag > best {
							best = diag
						}
						dp[i*(n+1)+j] = best
					}
				}
			}
			// Device traffic: load the tile halo and reference scores,
			// 2*nwTile anti-diagonal barrier steps in shared memory, store
			// the tile.
			c.Load(dDP.At((y0+ty)*(n+1)+x0+tx), 4)
			c.Load(dRef.At((y0+ty)*n+x0+tx), 4)
			c.SharedAccessRep(uint64(((ty*(nwTile+1))+tx)*4), 6)
			c.IntOps(12)
			c.SyncThreads()
			c.IntOps(10)
			c.SyncThreads()
			c.Store(dDP.At((y0+ty)*(n+1)+x0+tx), 4)
		})
	}

	// Upper-left triangle: diagonals with growing tile counts.
	for d := 0; d < tiles; d++ {
		d := d
		processDiag("needle_cuda_shared_1", d+1, func(k int) (int, int) {
			return k, d - k
		})
	}
	// Lower-right triangle: shrinking tile counts.
	for d := tiles - 2; d >= 0; d-- {
		d := d
		processDiag("needle_cuda_shared_2", d+1, func(k int) (int, int) {
			return tiles - 1 - k, tiles - 1 - (d - k)
		})
	}

	// Validate the final score and sampled cells against a sequential DP.
	ref := make([]int32, (n+1)*(n+1))
	for i := 0; i <= n; i++ {
		ref[i*(n+1)] = int32(i * nwPenalty)
		ref[i] = int32(i * nwPenalty)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			up := ref[(i-1)*(n+1)+j] + nwPenalty
			left := ref[i*(n+1)+j-1] + nwPenalty
			diag := ref[(i-1)*(n+1)+j-1] + score(seqA[j-1], seqB[i-1])
			best := up
			if left > best {
				best = left
			}
			if diag > best {
				best = diag
			}
			ref[i*(n+1)+j] = best
		}
	}
	for _, idx := range []int{n*(n+1) + n, (n/2)*(n+1) + n/3, 5*(n+1) + 5} {
		if dp[idx] != ref[idx] {
			return core.Validatef(p.Name(), "dp[%d] = %d, want %d", idx, dp[idx], ref[idx])
		}
	}
	return nil
}
