// Package stats provides the small statistical helpers the experiment
// harness needs: medians, quartiles, box summaries (for the paper's
// box-and-whisker figures) and spread metrics (for the variability table).
package stats

import (
	"math"
	"sort"
)

// Median returns the median of vals (NaN for an empty slice).
func Median(vals []float64) float64 {
	return Quantile(vals, 0.5)
}

// Quantile returns the q-quantile (0..1) of vals using linear interpolation
// between order statistics. It returns NaN for an empty slice, or when any
// value is NaN: NaNs sort to the front of the order statistics, so without
// the guard a poisoned sample would silently shift every quantile instead of
// poisoning the summary the way Spread does.
func Quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return quantileInPlace(append([]float64(nil), vals...), q)
}

// MedianInPlace is Median for a caller that no longer needs vals: it sorts
// vals in place instead of a copy.
func MedianInPlace(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return quantileInPlace(vals, 0.5)
}

// quantileInPlace is Quantile over a non-empty s, which it sorts.
func quantileInPlace(s []float64, q float64) float64 {
	for _, v := range s {
		if math.IsNaN(v) {
			return math.NaN()
		}
	}
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Box summarizes a distribution the way the paper's figures do: median bar,
// first/third quartile box, min/max whiskers.
type Box struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// BoxOf computes the box summary of vals.
func BoxOf(vals []float64) Box {
	if len(vals) == 0 {
		return Box{Min: math.NaN(), Q1: math.NaN(), Median: math.NaN(), Q3: math.NaN(), Max: math.NaN()}
	}
	return Box{
		Min:    Quantile(vals, 0),
		Q1:     Quantile(vals, 0.25),
		Median: Quantile(vals, 0.5),
		Q3:     Quantile(vals, 0.75),
		Max:    Quantile(vals, 1),
		N:      len(vals),
	}
}

// Spread returns (max-min)/min of vals: the paper's run-to-run variability
// metric ("difference between the highest and the lowest of any set of
// three measurements"). It returns 0 for fewer than two values and NaN if
// any value is NaN (a poisoned measurement must not read as "no spread").
func Spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	min, max := vals[0], vals[0]
	for _, v := range vals[1:] {
		if math.IsNaN(v) {
			return math.NaN()
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if math.IsNaN(min) {
		return math.NaN()
	}
	if min <= 0 {
		return 0
	}
	return (max - min) / min
}

// Mean returns the arithmetic mean (NaN for an empty slice).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
