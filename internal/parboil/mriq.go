package parboil

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// MRIQ computes the Q matrix used to calibrate 3-D non-Cartesian magnetic
// resonance image reconstruction: for every voxel, a sum of cos/sin terms
// over the k-space trajectory. Almost pure fp32/SFU arithmetic out of
// registers and constant memory — the classic compute-bound kernel.
type MRIQ struct{ core.Meta }

// NewMRIQ constructs the MRI-Q benchmark.
func NewMRIQ() *MRIQ {
	return &MRIQ{core.Meta{
		ProgName:   "MRIQ",
		ProgSuite:  core.SuiteParboil,
		Desc:       "MRI reconstruction Q-matrix (non-Cartesian k-space)",
		Kernels:    2,
		InputNames: []string{"64x64x64"},
		Default:    "64x64x64",
	}}
}

const (
	mriqVoxels = 20 * 20 * 20 // simulated voxels (the paper's is 64^3)
	mriqK      = 768          // k-space samples per voxel sum
	mriqScale  = 2100.0       // 64^3/20^3 voxels and the full 2048-sample trajectory
	mriqPasses = 40
)

// Run computes Q and validates sampled voxels against a float64 reference.
func (p *MRIQ) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(mriqScale)

	rng := xrand.New(xrand.HashString("mriq"))
	kx := make([]float32, mriqK)
	ky := make([]float32, mriqK)
	kz := make([]float32, mriqK)
	phiR := make([]float32, mriqK)
	phiI := make([]float32, mriqK)
	phiMag := make([]float32, mriqK)
	for i := 0; i < mriqK; i++ {
		kx[i] = rng.Float32() - 0.5
		ky[i] = rng.Float32() - 0.5
		kz[i] = rng.Float32() - 0.5
		phiR[i] = rng.Float32()
		phiI[i] = rng.Float32()
	}

	dPhi := dev.NewArray(mriqK, 8)
	dMag := dev.NewArray(mriqK, 4)
	dQ := dev.NewArray(mriqVoxels, 8)

	// Kernel 1: |phi|^2 per k-space sample.
	dev.Launch("ComputePhiMag", (mriqK+255)/256, 256, func(c *sim.Ctx) {
		i := c.TID()
		if i >= mriqK {
			return
		}
		phiMag[i] = phiR[i]*phiR[i] + phiI[i]*phiI[i]
		c.Load(dPhi.At(i), 8)
		c.FP32Ops(3)
		c.Store(dMag.At(i), 4)
	})

	// Kernel 2: the Q sum per voxel.
	qr := make([]float32, mriqVoxels)
	qi := make([]float32, mriqVoxels)
	l := dev.Launch("ComputeQ", (mriqVoxels+255)/256, 256, func(c *sim.Ctx) {
		v := c.TID()
		if v >= mriqVoxels {
			return
		}
		x, y, z := voxelCoords(v)
		var sr, si float32
		for k := 0; k < mriqK; k++ {
			arg := 2 * math.Pi * float64(kx[k]*x+ky[k]*y+kz[k]*z)
			s, cth := math.Sincos(arg)
			sr += phiMag[k] * float32(cth)
			si += phiMag[k] * float32(s)
		}
		qr[v] = sr
		qi[v] = si
		// k-space data sits in constant memory; the cost is arithmetic:
		// ~8 fp32 plus a sincos (2 SFU) per sample.
		c.FP32Ops(8 * mriqK)
		c.SFUOps(2 * mriqK)
		c.IntOps(20)
		c.Store(dQ.At(v), 8)
	})
	dev.Repeat(l, mriqPasses)

	// Validate sampled voxels against a float64 recompute.
	for _, v := range []int{0, mriqVoxels / 2, mriqVoxels - 1} {
		x, y, z := voxelCoords(v)
		var sr, si float64
		for k := 0; k < mriqK; k++ {
			arg := 2 * math.Pi * (float64(kx[k])*float64(x) + float64(ky[k])*float64(y) + float64(kz[k])*float64(z))
			s, cth := math.Sincos(arg)
			sr += float64(phiMag[k]) * cth
			si += float64(phiMag[k]) * s
		}
		if math.Abs(float64(qr[v])-sr) > 1e-2*(math.Abs(sr)+1) ||
			math.Abs(float64(qi[v])-si) > 1e-2*(math.Abs(si)+1) {
			return core.Validatef(p.Name(), "voxel %d Q = (%g,%g), want (%g,%g)", v, qr[v], qi[v], sr, si)
		}
	}
	return nil
}

func voxelCoords(v int) (float32, float32, float32) {
	const d = 20
	return float32(v%d) / d, float32((v/d)%d) / d, float32(v/(d*d)) / d
}
