// Package sensor simulates the K20's built-in power sensor. The sensor does
// not report instantaneous power: it applies a running-average (first-order
// low-pass) response, samples at 1 Hz while the reading is near idle and at
// 10 Hz once the reading exceeds a switch level, quantizes to milliwatts,
// and is subject to gaussian noise plus a slow thermal drift. Programs whose
// power never reaches the switch level are sampled only at 1 Hz, which is
// why short runs at the 324 MHz configuration yield too few samples to
// analyze — exactly the effect the paper reports.
package sensor

import (
	"math"

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

// Options configure the sensor simulation.
type Options struct {
	// Seed distinguishes repeated experiments (noise and drift phase).
	Seed uint64
	// Tau is the time constant of the sensor's running average in seconds.
	Tau float64
	// SwitchW is the reported power above which the sensor samples at the
	// active 10 Hz rate instead of the idle 1 Hz rate.
	SwitchW float64
	// NoiseSigmaW is the standard deviation of the per-sample noise.
	NoiseSigmaW float64
	// DriftAmpW is the amplitude of the slow thermal drift.
	DriftAmpW float64
	// IdleDT and ActiveDT are the sampling intervals in seconds.
	IdleDT, ActiveDT float64
}

// DefaultOptions returns the calibrated sensor behaviour.
func DefaultOptions(seed uint64) Options {
	return Options{
		Seed:        seed,
		Tau:         0.7,
		SwitchW:     44.0,
		NoiseSigmaW: 0.35,
		DriftAmpW:   0.55,
		IdleDT:      1.0,
		ActiveDT:    0.1,
	}
}

// Record samples the true-power timeline the way the on-board sensor would,
// returning the reported samples.
func Record(segs []power.Segment, opt Options) []Sample {
	return AppendRecord(nil, segs, opt)
}

// AppendRecord is Record appending the samples to dst, so a caller that
// records many timelines can reuse one buffer (pass dst[:0]).
func AppendRecord(dst []Sample, segs []power.Segment, opt Options) []Sample {
	if opt.Tau <= 0 {
		opt.Tau = 0.7
	}
	if opt.IdleDT <= 0 {
		opt.IdleDT = 1.0
	}
	if opt.ActiveDT <= 0 {
		opt.ActiveDT = 0.1
	}
	if len(segs) == 0 {
		return dst
	}
	end := segs[len(segs)-1].End()
	rng := xrand.New(opt.Seed ^ 0x2545f4914f6cdd1d)
	driftPhase := rng.Float64() * 2 * math.Pi

	samples := dst
	reported := segs[0].Watts
	t := 0.0
	segIdx := 0
	for end-t >= MinDT {
		dt := opt.IdleDT
		if reported >= opt.SwitchW {
			dt = opt.ActiveDT
		}
		next := t + dt
		if next > end {
			next = end
		}
		avg, newIdx := avgPower(segs, segIdx, t, next)
		segIdx = newIdx
		alpha := 1 - math.Exp(-(next-t)/opt.Tau)
		reported += (avg - reported) * alpha
		t = next

		w := reported
		w += rng.Norm() * opt.NoiseSigmaW
		w += opt.DriftAmpW * math.Sin(2*math.Pi*t/300+driftPhase)
		if w < 0 {
			w = 0
		}
		w = math.Round(w*1000) / 1000 // milliwatt quantization
		samples = append(samples, Sample{T: t, W: w})
	}
	return samples
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
