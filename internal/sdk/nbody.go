package sdk

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// NBody is the CUDA SDK all-pairs n-body simulation: every body computes the
// gravitational force from every other body, tiled through shared memory.
// It is highly regular and compute bound with excellent shared-memory reuse,
// which is why the paper finds it to draw the most power of all codes and to
// see the largest power savings (22%) from the 614 MHz configuration.
type NBody struct{ core.Meta }

// NewNBody constructs the all-pairs n-body simulation.
func NewNBody() *NBody {
	return &NBody{core.Meta{
		ProgName:   "NB",
		ProgSuite:  core.SuiteSDK,
		Desc:       "all-pairs gravitational n-body simulation",
		Kernels:    1,
		InputNames: []string{"100k", "250k", "1m"},
		Default:    "1m",
	}}
}

// nbInput maps the paper's body counts to the simulated surrogate sizes and
// the number of benchmark-loop iterations: smaller inputs are looped longer
// so that the power sensor collects enough samples (the methodology the
// paper's section VI recommends).
func nbInput(input string) (simN int, realN float64, loops int, err error) {
	switch input {
	case "100k":
		return 2048, 100e3, 80, nil
	case "250k":
		return 3072, 250e3, 20, nil
	case "1m":
		return 6656, 1000e3, 3, nil
	}
	return 0, 0, 0, fmt.Errorf("NB: unknown input %q", input)
}

const (
	nbTile                = 256
	nbSoftening           = 1e-3
	nbTimesteps           = 10
	nbFlopsPerInteraction = 22 // 3 sub, 3 mul+add dist, rsqrt chain, 3 fma
)

// Run performs nbTimesteps leapfrog steps and validates momentum
// conservation (total momentum of an isolated system must stay ~0).
func (p *NBody) Run(ctx context.Context, dev *sim.GPU, input string) error {
	n, realN, loops, err := nbInput(input)
	if err != nil {
		return err
	}
	// Quadratic surrogate factor (all-pairs work is O(n^2)), calibrated by
	// a constant so the 1m-body default lands near the K20's absolute
	// runtime for the SDK benchmark loop.
	scale := (realN / float64(n)) * (realN / float64(n)) / 8
	dev.SetTimeScale(scale)

	rng := xrand.New(xrand.HashString("nbody-" + input))
	pos := make([][3]float32, n)
	vel := make([][3]float32, n)
	mass := make([]float32, n)
	for i := 0; i < n; i++ {
		pos[i] = [3]float32{rng.Float32()*2 - 1, rng.Float32()*2 - 1, rng.Float32()*2 - 1}
		mass[i] = 0.5 + rng.Float32()
	}
	// Zero net momentum start.
	acc := make([][3]float32, n)

	dPos := dev.NewArray(n, 16) // float4
	dVel := dev.NewArray(n, 16)

	const dt = 1e-3
	l := dev.Launch("integrateBodies", n/nbTile, nbTile, func(c *sim.Ctx) {
		i := c.TID()
		var ax, ay, az float32
		tiles := n / nbTile
		for t := 0; t < tiles; t++ {
			// Each thread loads one body of the tile into shared memory.
			c.Load(dPos.At(t*nbTile+c.Thread), 16)
			c.SyncThreads()
			base := t * nbTile
			for j := base; j < base+nbTile; j++ {
				dx := pos[j][0] - pos[i][0]
				dy := pos[j][1] - pos[i][1]
				dz := pos[j][2] - pos[i][2]
				d2 := dx*dx + dy*dy + dz*dz + nbSoftening
				inv := float32(1 / math.Sqrt(float64(d2)))
				inv3 := inv * inv * inv * mass[j]
				ax += dx * inv3
				ay += dy * inv3
				az += dz * inv3
			}
			// Shared-memory reads and the arithmetic of the inner loop.
			c.SharedAccessRep(uint64(c.Thread*16), nbTile)
			c.FP32Ops(nbTile * nbFlopsPerInteraction)
			c.SFUOps(nbTile) // rsqrt
			c.SyncThreads()
		}
		acc[i] = [3]float32{ax, ay, az}
		c.Load(dVel.At(i), 16)
		c.FP32Ops(12)
		c.Store(dVel.At(i), 16)
		c.Store(dPos.At(i), 16)
	})
	// Validation 1: internal forces cancel pairwise, so the mass-weighted
	// acceleration sum must be ~0 relative to its magnitude scale. (Our
	// kernel is not mass-symmetric — a_i sums m_j — so weight by m_i.)
	var px, py, pz, mag float64
	for i := 0; i < n; i++ {
		m := float64(mass[i])
		px += m * float64(acc[i][0])
		py += m * float64(acc[i][1])
		pz += m * float64(acc[i][2])
		mag += m * math.Sqrt(float64(acc[i][0]*acc[i][0]+acc[i][1]*acc[i][1]+acc[i][2]*acc[i][2]))
	}
	net := math.Sqrt(px*px+py*py+pz*pz) / (mag + 1e-30)
	if net > 0.01 {
		return core.Validatef(p.Name(), "net momentum drift %e too large", net)
	}
	// Validation 2: spot-check bodies against an independent float64
	// recompute on the same (pre-update) positions.
	for _, i := range []int{0, n / 3, n - 1} {
		ax, ay, az := refAccel(pos, mass, i)
		got := math.Sqrt(float64(acc[i][0]*acc[i][0] + acc[i][1]*acc[i][1] + acc[i][2]*acc[i][2]))
		want := math.Sqrt(ax*ax + ay*ay + az*az)
		if math.Abs(got-want) > 1e-2*(want+1) {
			return core.Validatef(p.Name(), "body %d acceleration %g, reference %g", i, got, want)
		}
	}

	// Leapfrog update on the host mirror (one representative step; the
	// remaining timesteps replay the identical kernel).
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			vel[i][k] += acc[i][k] * dt
			pos[i][k] += vel[i][k] * dt
		}
	}
	dev.Repeat(l, nbTimesteps*loops)
	return nil
}

// refAccel recomputes the acceleration of body i directly in float64.
func refAccel(pos [][3]float32, mass []float32, i int) (ax, ay, az float64) {
	for j := range pos {
		dx := float64(pos[j][0] - pos[i][0])
		dy := float64(pos[j][1] - pos[i][1])
		dz := float64(pos[j][2] - pos[i][2])
		d2 := dx*dx + dy*dy + dz*dz + nbSoftening
		inv := 1 / math.Sqrt(d2)
		inv3 := inv * inv * inv * float64(mass[j])
		ax += dx * inv3
		ay += dy * inv3
		az += dz * inv3
	}
	return
}
