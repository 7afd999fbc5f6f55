package rodinia

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Hotspot and Kmeans are Rodinia benchmarks the paper could NOT use
// because their active runtimes are too short for the power sensor
// (section IV.A). Like the studied programs they perform the real
// computation and validate their outputs; the measurement stack rejects
// them with an insufficient-samples error.

// Hotspot is Rodinia's thermal simulation: an iterative 5-point stencil
// combining ambient dissipation and per-cell power input.
type Hotspot struct{ core.Meta }

// NewHotspot constructs the thermal-simulation benchmark.
func NewHotspot() *Hotspot {
	return &Hotspot{core.Meta{
		ProgName:   "HOTSPOT",
		ProgSuite:  core.SuiteRodinia,
		Desc:       "chip thermal simulation stencil (too short to measure)",
		Kernels:    1,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

const (
	hotDim   = 256
	hotIters = 8
)

// Run simulates heat diffusion and validates against a sequential replay.
func (p *Hotspot) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	n := hotDim * hotDim
	rng := xrand.New(xrand.HashString("hotspot"))
	temp := make([]float32, n)
	pow := make([]float32, n)
	for i := range temp {
		temp[i] = 320 + rng.Float32()*10
		pow[i] = rng.Float32() * 0.5
	}
	orig := append([]float32(nil), temp...)
	next := make([]float32, n)

	dT := dev.NewArray(n, 4)
	dP := dev.NewArray(n, 4)

	idx := func(x, y int) int { return y*hotDim + x }
	step := func(cur, nxt []float32) {
		for y := 0; y < hotDim; y++ {
			for x := 0; x < hotDim; x++ {
				i := idx(x, y)
				up, down, left, right := cur[i], cur[i], cur[i], cur[i]
				if y > 0 {
					up = cur[idx(x, y-1)]
				}
				if y < hotDim-1 {
					down = cur[idx(x, y+1)]
				}
				if x > 0 {
					left = cur[idx(x-1, y)]
				}
				if x < hotDim-1 {
					right = cur[idx(x+1, y)]
				}
				nxt[i] = cur[i] + 0.05*(up+down+left+right-4*cur[i]) + 0.01*pow[i] - 0.001*(cur[i]-300)
			}
		}
	}

	cur, nxt := temp, next
	for it := 0; it < hotIters; it++ {
		cc, nn := cur, nxt
		dev.Launch("calculate_temp", (n+255)/256, 256, func(ctx *sim.Ctx) {
			i := ctx.TID()
			if i >= n {
				return
			}
			if ctx.Thread == 0 && ctx.Block == 0 {
				step(cc, nn)
			}
			ctx.Load(dT.At(i), 4)
			ctx.Load(dP.At(i), 4)
			ctx.Load(dT.At((i+hotDim)%n), 4)
			ctx.SharedAccessRep(uint64(ctx.Thread%32*4), 4)
			ctx.FP32Ops(12)
			ctx.Store(dT.At(i), 4)
		})
		cur, nxt = nxt, cur
	}

	// Sequential replay.
	a := append([]float32(nil), orig...)
	b := make([]float32, n)
	for it := 0; it < hotIters; it++ {
		step(a, b)
		a, b = b, a
	}
	for _, i := range []int{0, n / 2, n - 1} {
		if math.Abs(float64(cur[i]-a[i])) > 1e-4 {
			return core.Validatef(p.Name(), "cell %d = %g, want %g", i, cur[i], a[i])
		}
	}
	return nil
}

// Kmeans is Rodinia's k-means clustering: assignment of points to the
// nearest centroid plus a host-side centroid update, iterated briefly.
type Kmeans struct{ core.Meta }

// NewKmeans constructs the k-means benchmark.
func NewKmeans() *Kmeans {
	return &Kmeans{core.Meta{
		ProgName:   "KMEANS",
		ProgSuite:  core.SuiteRodinia,
		Desc:       "k-means clustering (too short to measure)",
		Kernels:    1,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

const (
	kmN     = 1 << 15
	kmDims  = 8
	kmK     = 16
	kmIters = 6
)

// Run clusters random points and validates that the final assignment is a
// fixpoint (every point sits with its nearest centroid).
func (p *Kmeans) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	rng := xrand.New(xrand.HashString("kmeans"))
	pts := make([][kmDims]float32, kmN)
	for i := range pts {
		for d := 0; d < kmDims; d++ {
			pts[i][d] = rng.Float32() * float32(1+i%kmK)
		}
	}
	centroids := make([][kmDims]float32, kmK)
	for k := range centroids {
		centroids[k] = pts[rng.Intn(kmN)]
	}
	assign := make([]int32, kmN)

	dPts := dev.NewArray(kmN*kmDims, 4)
	dAssign := dev.NewArray(kmN, 4)

	nearest := func(pt [kmDims]float32) int32 {
		best, bd := int32(0), math.Inf(1)
		for k := 0; k < kmK; k++ {
			var d2 float64
			for d := 0; d < kmDims; d++ {
				diff := float64(pt[d] - centroids[k][d])
				d2 += diff * diff
			}
			if d2 < bd {
				bd = d2
				best = int32(k)
			}
		}
		return best
	}

	for it := 0; it < kmIters; it++ {
		dev.Launch("kmeansPoint", (kmN+255)/256, 256, func(ctx *sim.Ctx) {
			i := ctx.TID()
			if i >= kmN {
				return
			}
			assign[i] = nearest(pts[i])
			ctx.LoadRep(dPts.At(i*kmDims), 4, kmDims)
			ctx.FP32Ops(kmK * kmDims * 3)
			ctx.IntOps(kmK * 2)
			ctx.Store(dAssign.At(i), 4)
		})
		// Host-side centroid update (as in Rodinia).
		var sums [kmK][kmDims]float64
		var counts [kmK]int
		for i := 0; i < kmN; i++ {
			k := assign[i]
			counts[k]++
			for d := 0; d < kmDims; d++ {
				sums[k][d] += float64(pts[i][d])
			}
		}
		for k := 0; k < kmK; k++ {
			if counts[k] == 0 {
				continue
			}
			for d := 0; d < kmDims; d++ {
				centroids[k][d] = float32(sums[k][d] / float64(counts[k]))
			}
		}
	}
	// Final assignment pass so the stored assignment matches the final
	// centroids.
	dev.Launch("kmeansPoint", (kmN+255)/256, 256, func(ctx *sim.Ctx) {
		i := ctx.TID()
		if i >= kmN {
			return
		}
		assign[i] = nearest(pts[i])
		ctx.LoadRep(dPts.At(i*kmDims), 4, kmDims)
		ctx.FP32Ops(kmK * kmDims * 3)
		ctx.Store(dAssign.At(i), 4)
	})

	for _, i := range []int{0, kmN / 3, kmN - 1} {
		if assign[i] != nearest(pts[i]) {
			return core.Validatef(p.Name(), "point %d not assigned to nearest centroid", i)
		}
	}
	return nil
}
