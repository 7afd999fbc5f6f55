package rodinia

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// PF is PathFinder: dynamic programming over a 2-D grid where each row's
// costs derive from the minimum of three neighbors in the previous row. The
// ghost-zone kernel processes several rows per launch out of shared memory.
// Streaming and memory bound.
type PF struct{ core.Meta }

// NewPF constructs the PathFinder benchmark.
func NewPF() *PF {
	return &PF{core.Meta{
		ProgName:   "PF",
		ProgSuite:  core.SuiteRodinia,
		Desc:       "grid dynamic programming with ghost-zone pyramids",
		Kernels:    1,
		InputNames: []string{"100k-100-20", "200k-200-40"},
		Default:    "100k-100-20",
	}}
}

const pfPasses = 450

func pfShape(input string) (cols, rows, pyramid int, realCols float64, err error) {
	switch input {
	case "100k-100-20":
		return 16384, 100, 20, 100e3, nil
	case "200k-200-40":
		return 16384, 200, 40, 200e3, nil
	}
	return 0, 0, 0, 0, fmt.Errorf("PF: unknown input %q", input)
}

// Run computes the min-cost path values and validates against a sequential
// DP.
func (p *PF) Run(ctx context.Context, dev *sim.GPU, input string) error {
	cols, rows, pyramid, realCols, err := pfShape(input)
	if err != nil {
		return err
	}
	dev.SetTimeScale(realCols / float64(cols) * pfPasses)

	rng := xrand.New(xrand.HashString("pathfinder-" + input))
	wall := make([][]int32, rows)
	for r := range wall {
		wall[r] = make([]int32, cols)
		for c := range wall[r] {
			wall[r][c] = int32(rng.Intn(10))
		}
	}
	result := make([]int32, cols)
	copy(result, wall[0])

	dWall := dev.NewArray(rows*cols, 4)
	dResult := dev.NewArray(cols, 4)

	// One kernel per pyramid step, each covering `pyramid` rows.
	var last sim.LaunchID
	for r := 1; r < rows; {
		stepRows := pyramid
		if r+stepRows > rows {
			stepRows = rows - r
		}
		r0 := r
		last = dev.LaunchShared("dynproc_kernel", (cols+255)/256, 256, 2*256*4, func(c *sim.Ctx) {
			col := c.TID()
			if col >= cols {
				return
			}
			c.Load(dResult.At(col), 4)
			// Host mirror: thread 0 advances the DP rows serially; on the
			// GPU each thread keeps its column in shared memory with
			// barriers per row.
			if col == 0 {
				for rr := r0; rr < r0+stepRows; rr++ {
					next := make([]int32, cols)
					for cc := 0; cc < cols; cc++ {
						best := result[cc]
						if cc > 0 && result[cc-1] < best {
							best = result[cc-1]
						}
						if cc+1 < cols && result[cc+1] < best {
							best = result[cc+1]
						}
						next[cc] = wall[rr][cc] + best
					}
					copy(result, next)
				}
			}
			c.LoadRep(dWall.At(r0*cols+col), 4, stepRows)
			c.SharedAccessRep(uint64(c.Thread*4), 3*stepRows)
			c.IntOps(6 * stepRows)
			for s := 0; s < stepRows; s++ {
				c.SyncThreads()
			}
			c.Store(dResult.At(col), 4)
		})
		r += stepRows
	}
	// The Rodinia harness repeats the whole DP; replay the last launch to
	// stand in for the remaining passes.
	if rows > 1 {
		dev.Repeat(last, pfPasses)
	}

	// Sequential reference.
	ref := make([]int32, cols)
	copy(ref, wall[0])
	for r := 1; r < rows; r++ {
		next := make([]int32, cols)
		for cc := 0; cc < cols; cc++ {
			best := ref[cc]
			if cc > 0 && ref[cc-1] < best {
				best = ref[cc-1]
			}
			if cc+1 < cols && ref[cc+1] < best {
				best = ref[cc+1]
			}
			next[cc] = wall[r][cc] + best
		}
		copy(ref, next)
	}
	for cc := 0; cc < cols; cc++ {
		if result[cc] != ref[cc] {
			return core.Validatef(p.Name(), "result[%d] = %d, want %d", cc, result[cc], ref[cc])
		}
	}
	return nil
}
