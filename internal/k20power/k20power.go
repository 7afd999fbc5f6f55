// Package k20power analyzes power-sensor sample logs the way Burtscher,
// Zecena and Zong's K20Power tool does: it estimates the idle level, derives
// a dynamic per-run activity threshold (lower frequency settings produce
// lower plateaus and therefore lower thresholds), compensates the sensor's
// running-average lag, and integrates the active region to obtain the
// program's active runtime, energy consumption and average power draw. Runs
// whose active region holds too few samples are rejected, mirroring the
// paper's exclusion of most programs at the 324 MHz configuration.
package k20power

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/kepler"
	"repro/internal/sensor"
)

// ErrInsufficientSamples reports that the active region contained too few
// samples for a reliable analysis.
var ErrInsufficientSamples = errors.New("k20power: insufficient power samples in active region")

// ErrNoActivity reports that no sample exceeded the activity threshold.
var ErrNoActivity = errors.New("k20power: no sample above activity threshold")

// The calibrated analysis parameters.
const (
	// thresholdFrac places the activity threshold this fraction of the way
	// from the idle level to the peak level.
	thresholdFrac = 0.25
	// tailGuardW keeps the threshold at least this far above idle on a
	// 200 W-class board, so the driver's tail power is not mistaken for
	// activity. Analyze scales it with the device's power envelope
	// (Power.EnergyScale, 1 on the Kepler boards).
	tailGuardW = 4.0
	// minSamples is the minimum number of samples the active region must
	// contain.
	minSamples = 12
	// minSamples1Hz is the minimum when the active region was sampled at
	// the slow idle rate (the sensor never switched to 10 Hz): the paper
	// found such runs too inconsistent to use below this length.
	minSamples1Hz = 30
)

// Measurement is the result of analyzing one run.
type Measurement struct {
	// ActiveTime is the time the GPU spent executing kernel code, seconds.
	ActiveTime float64
	// Energy is the energy consumed during the active region, joules.
	Energy float64
	// AvgPower is Energy/ActiveTime, watts.
	AvgPower float64
	// IdleW, PeakW and ThresholdW document the detected levels.
	IdleW, PeakW, ThresholdW float64
	// ActiveSamples is the number of samples inside the active region.
	ActiveSamples int
}

// String summarizes the measurement in one line.
func (m Measurement) String() string {
	return fmt.Sprintf("active %.3f s, %.1f J, %.1f W (idle %.1f W, threshold %.1f W, %d samples)",
		m.ActiveTime, m.Energy, m.AvgPower, m.IdleW, m.ThresholdW, m.ActiveSamples)
}

// Analyze processes a sample log recorded on the device; the device sets
// the tail guard.
func Analyze(samples []sensor.Sample, dev *kepler.Device) (Measurement, error) {
	var a Analyzer
	return a.Analyze(samples, dev)
}

// Analyzer runs Analyze with work buffers (the compensated log and the
// order-statistic heap) that it keeps between calls, so a stream of
// analyses stops allocating once the buffers have grown to the longest log.
// The zero value is ready to use; an Analyzer is not safe for concurrent
// use.
type Analyzer struct {
	comp []sensor.Sample
	heap []rankedPower
}

// Analyze is the package-level Analyze, reusing a's buffers.
func (a *Analyzer) Analyze(samples []sensor.Sample, dev *kepler.Device) (Measurement, error) {
	if len(samples) < 3 {
		return Measurement{}, ErrInsufficientSamples
	}

	a.comp = compensate(a.comp[:0], samples)
	comp := a.comp

	// The log starts and ends at driver idle, but a long run at the active
	// 10 Hz rate can make idle samples a tiny fraction of the log, so a
	// plain low percentile would land on the plateau. Use a near-minimum of
	// the RAW samples (compensation overshoots on falling edges; the second
	// smallest value guards against a single noise dip).
	idleRank := 0
	if len(samples) > 4 {
		idleRank = 1
	}
	idle := a.nthSmallest(samples, idleRank)
	peak := a.percentile(comp, 0.999)
	threshold := idle + thresholdFrac*(peak-idle)
	// The conversion rounds the scaled guard before the add (no fused
	// multiply-add), so the threshold is bit-stable across platforms.
	guard := float64(tailGuardW * dev.Power.EnergyScale)
	if min := idle + guard; threshold < min {
		threshold = min
	}

	first, last := -1, -1
	for i, s := range comp {
		if s.W >= threshold {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	m := Measurement{IdleW: idle, PeakW: peak, ThresholdW: threshold}
	if first < 0 {
		return m, ErrNoActivity
	}
	m.ActiveSamples = last - first + 1
	need := minSamples
	if last > first {
		// Median sampling interval above half a second means the sensor
		// stayed at the idle 1 Hz rate throughout. The median — not the
		// mean — is load-bearing here: a single long sensor dropout inside
		// an otherwise 10 Hz run must not reclassify the whole run as
		// 1 Hz-sampled and exclude it.
		if slowlySampled(comp[first : last+1]) {
			need = minSamples1Hz
		}
	}
	if m.ActiveSamples < need {
		return m, fmt.Errorf("%w: %d < %d", ErrInsufficientSamples, m.ActiveSamples, need)
	}

	// Extend half a sampling interval on each side: the kernel started
	// between the last sub-threshold sample and the first active one.
	lead := halfGap(comp, first)
	trail := halfGap(comp, last)
	m.ActiveTime = comp[last].T - comp[first].T + lead + trail

	// Trapezoidal integration over the active region plus the edge halves.
	var e float64
	for i := first; i < last; i++ {
		dt := comp[i+1].T - comp[i].T
		e += 0.5 * (comp[i].W + comp[i+1].W) * dt
	}
	e += comp[first].W * lead
	e += comp[last].W * trail
	m.Energy = e
	if m.ActiveTime > 0 {
		m.AvgPower = m.Energy / m.ActiveTime
	}
	return m, nil
}

// Compensate undoes the sensor's first-order running average: for a
// low-pass y' = (x - y)/tau, the input is x = y + tau * dy/dt, with the
// sensor's time constant sensor.Tau.
//
// Samples whose time step is below sensor.MinDT (a duplicated,
// non-monotonic or near-duplicate timestamp, as real sensor logs
// occasionally contain) carry no derivative information, so they are left at
// their raw reported value rather than dividing by a zero, negative or
// rounding-sized dt.
func Compensate(samples []sensor.Sample) []sensor.Sample {
	return compensate(nil, samples)
}

// compensate is Compensate writing into dst's storage when it is large
// enough.
func compensate(dst, samples []sensor.Sample) []sensor.Sample {
	out := append(dst[:0], samples...)
	for i := 1; i < len(samples); i++ {
		dt := samples[i].T - samples[i-1].T
		if dt < sensor.MinDT {
			continue
		}
		x := samples[i].W + sensor.Tau*(samples[i].W-samples[i-1].W)/dt
		if x < 0 {
			x = 0
		}
		out[i].W = x
	}
	return out
}

// halfGap returns half the sampling interval adjacent to index i.
func halfGap(samples []sensor.Sample, i int) float64 {
	if i > 0 {
		return (samples[i].T - samples[i-1].T) / 2
	}
	if i+1 < len(samples) {
		return (samples[i+1].T - samples[i].T) / 2
	}
	return 0
}

// nthSmallest returns the n-th smallest power (0-based), clamping n to the
// largest.
func (a *Analyzer) nthSmallest(samples []sensor.Sample, n int) float64 {
	if n >= len(samples) {
		n = len(samples) - 1
	}
	return a.orderStat(samples, n)
}

// slowlySampled reports whether the median inter-sample time gap exceeds
// half a second (false for fewer than two samples). It counts the gaps that
// sort at or below 0.5 s (NaN sorts first, as in sort.Float64s) instead of
// sorting them: the count alone places the median on one side of 0.5 s,
// except for an even number of gaps whose two middle ones straddle it. Then
// the median is the mean of the largest gap at or below 0.5 s and the
// smallest above it, computed as the sorted median computes it. (Two gaps
// above 0.5 s always average above it: their exact sum exceeds 1 by at
// least 2⁻⁵², which 1's spacing represents, so rounding cannot pull it
// down to 1.)
func slowlySampled(samples []sensor.Sample) bool {
	n := len(samples) - 1
	if n < 1 {
		return false
	}
	low := 0
	lowMax, highMin := math.NaN(), math.Inf(1)
	for i := 1; i < len(samples); i++ {
		g := samples[i].T - samples[i-1].T
		if g > 0.5 {
			if g < highMin {
				highMin = g
			}
			continue
		}
		low++
		if math.IsNaN(lowMax) || g > lowMax {
			lowMax = g
		}
	}
	switch {
	case n%2 == 1:
		return low <= n/2
	case low != n/2:
		return low < n/2
	default:
		return (lowMax+highMin)/2 > 0.5
	}
}

// percentile returns the p-quantile (0..1) of the sample powers, or 0 for an
// empty log.
func (a *Analyzer) percentile(samples []sensor.Sample, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	idx := int(p * float64(len(samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return a.orderStat(samples, idx)
}

// orderStat returns the power at 0-based position rank of the log sorted by
// sort.Float64s (NaN first, then ascending); among powers that compare equal
// but differ in bits (±0, NaN payloads) it picks the one a stable sort would
// place there. Both callers want a rank near one end of the log (the idle
// rank is 0 or 1, the 0.999 percentile sits within ceil(n/1000)+1 of the
// top), so instead of sorting it keeps the k powers nearest that end in a
// bounded heap, held in a's buffer: O(n log k) time and O(k) space.
func (a *Analyzer) orderStat(samples []sensor.Sample, rank int) float64 {
	n := len(samples)
	h := powerHeap{top: n-rank < rank+1}
	k := rank + 1
	if h.top {
		k = n - rank
	}
	if cap(a.heap) < k {
		a.heap = make([]rankedPower, k)
	}
	h.xs = a.heap[:k]
	for i := range h.xs {
		h.xs[i] = rankedPower{samples[i].W, i}
	}
	for i := k/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	for i := k; i < n; i++ {
		if x := (rankedPower{samples[i].W, i}); h.above(h.xs[0], x) {
			h.xs[0] = x
			h.siftDown(0)
		}
	}
	return h.xs[0].w
}

// rankedPower is a sample power tagged with its log position, the tie-break
// that makes the sort order total and stable.
type rankedPower struct {
	w float64
	i int
}

// before reports whether a sorts before b: NaN first, then ascending power,
// then log position.
func before(a, b rankedPower) bool {
	if an, bn := math.IsNaN(a.w), math.IsNaN(b.w); an != bn {
		return an
	} else if !an && a.w != b.w {
		return a.w < b.w
	}
	return a.i < b.i
}

// powerHeap holds the k powers nearest one end of the sorted log, with the
// one nearest the middle at the root: a max-heap for the bottom k, a
// min-heap for the top k.
type powerHeap struct {
	xs  []rankedPower
	top bool
}

// above reports whether a belongs nearer the root than b.
func (h *powerHeap) above(a, b rankedPower) bool {
	if h.top {
		return before(a, b)
	}
	return before(b, a)
}

// siftDown restores the heap property below position i.
func (h *powerHeap) siftDown(i int) {
	for {
		s := i
		if l := 2*i + 1; l < len(h.xs) && h.above(h.xs[l], h.xs[s]) {
			s = l
		}
		if r := 2*i + 2; r < len(h.xs) && h.above(h.xs[r], h.xs[s]) {
			s = r
		}
		if s == i {
			return
		}
		h.xs[i], h.xs[s] = h.xs[s], h.xs[i]
		i = s
	}
}
