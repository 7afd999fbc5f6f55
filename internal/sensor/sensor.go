// Package sensor simulates the K20's built-in power sensor. The sensor does
// not report instantaneous power: it applies a running-average (first-order
// low-pass) response, samples at 1 Hz while the reading is near idle and at
// 10 Hz once the reading exceeds a switch level, quantizes to milliwatts,
// and is subject to gaussian noise plus a slow thermal drift. The switch
// level, noise and drift come from the device description
// (kepler.SensorModel); the time constant and the sampling rates are this
// package's constants. Programs whose
// power never reaches the switch level are sampled only at 1 Hz, which is
// why short runs at the 324 MHz configuration yield too few samples to
// analyze — exactly the effect the paper reports.
package sensor

import (
	"math"

	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/xrand"
)

// Sample is one sensor reading.
type Sample struct {
	T float64 // seconds since recording started
	W float64 // reported watts
}

// MinDT is the shortest sampling interval (seconds) a log carries
// meaningfully. Summing 0.1 s and 1 s steps can land a few ulps short of
// the timeline's end; an interval shorter than MinDT is such a rounding
// sliver, not a sample period.
const MinDT = 1e-9

// Tau is the time constant of the sensor's running average in seconds. The
// analyzer inverts the running average with this same constant.
const Tau = 0.7

// The sampling intervals in seconds: the idle rate while the reading is
// below the device's switch level, the active rate at or above it.
const (
	idleDT   = 1.0
	activeDT = 0.1
)

// Record samples the true-power timeline the way the device's on-board
// sensor would, returning the reported samples. The seed distinguishes
// repeated experiments (noise and drift phase).
func Record(segs []power.Segment, model kepler.SensorModel, seed uint64) []Sample {
	return AppendRecord(nil, segs, model, seed)
}

// AppendRecord is Record appending the samples to dst, so a caller that
// records many timelines can reuse one buffer (pass dst[:0]).
func AppendRecord(dst []Sample, segs []power.Segment, model kepler.SensorModel, seed uint64) []Sample {
	if len(segs) == 0 {
		return dst
	}
	end := segs[len(segs)-1].End()
	rng := xrand.New(seed ^ 0x2545f4914f6cdd1d)
	driftPhase := rng.Float64() * 2 * math.Pi

	samples := dst
	reported := segs[0].Watts
	t := 0.0
	segIdx := 0
	var ema emaFactors
	for end-t >= MinDT {
		dt := idleDT
		if reported >= model.SwitchW {
			dt = activeDT
		}
		next := t + dt
		if next > end {
			next = end
		}
		avg, newIdx := avgPower(segs, segIdx, t, next)
		segIdx = newIdx
		reported += (avg - reported) * ema.of(next-t)
		t = next

		w := reported
		w += rng.Norm() * model.NoiseSigmaW
		w += model.DriftAmpW * math.Sin(2*math.Pi*t/300+driftPhase)
		if w < 0 {
			w = 0
		}
		w = math.Round(w*1000) / 1000 // milliwatt quantization
		samples = append(samples, Sample{T: t, W: w})
	}
	return samples
}

// emaFactors memoizes the running average's step factor 1 − exp(−Δt/Tau)
// by the exact bits of Δt. A log's steps take few distinct values — the two
// sampling intervals as rounding at each magnitude of t leaves them, and
// the final sliver — so a small table serves almost every step without a
// math.Exp call, and a factor it serves is the one the same expression
// computed for the same Δt, bit for bit. It replaces the oldest entry when
// full.
type emaFactors struct {
	n, oldest int
	dtBits    [8]uint64
	factor    [8]float64
}

// of returns 1 − exp(−dt/Tau).
func (f *emaFactors) of(dt float64) float64 {
	bits := math.Float64bits(dt)
	for i := 0; i < f.n; i++ {
		if f.dtBits[i] == bits {
			return f.factor[i]
		}
	}
	a := 1 - math.Exp(-dt/Tau)
	i := f.n
	if i == len(f.dtBits) {
		i = f.oldest
		f.oldest = (f.oldest + 1) % len(f.dtBits)
	} else {
		f.n++
	}
	f.dtBits[i], f.factor[i] = bits, a
	return a
}

// avgPower integrates the true power over [t0, t1) starting the segment
// search at fromIdx, returning the average and the index to resume from.
func avgPower(segs []power.Segment, fromIdx int, t0, t1 float64) (float64, int) {
	if t1 <= t0 {
		if fromIdx < len(segs) {
			return segs[fromIdx].Watts, fromIdx
		}
		return segs[len(segs)-1].Watts, fromIdx
	}
	var energy float64
	i := fromIdx
	for i < len(segs) && segs[i].End() <= t0 {
		i++
	}
	resume := i
	for j := i; j < len(segs); j++ {
		s := segs[j]
		if s.Start >= t1 {
			break
		}
		lo := math.Max(s.Start, t0)
		hi := math.Min(s.End(), t1)
		if hi > lo {
			energy += s.Watts * (hi - lo)
		}
	}
	return energy / (t1 - t0), resume
}
