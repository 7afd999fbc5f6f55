package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %f", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %f", m)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty median should be NaN")
	}
}

func TestQuantileEndpoints(t *testing.T) {
	v := []float64{5, 2, 9, 1}
	if Quantile(v, 0) != 1 || Quantile(v, 1) != 9 {
		t.Error("quantile endpoints wrong")
	}
	if q := Quantile(v, 0.5); q != 3.5 {
		t.Errorf("q50 = %f", q)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	v := []float64{3, 1, 2}
	Quantile(v, 0.5)
	if !(v[0] == 3 && v[1] == 1 && v[2] == 2) {
		t.Error("Quantile mutated input")
	}
}

func TestBoxOf(t *testing.T) {
	b := BoxOf([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Median != 3 || b.Max != 5 || b.N != 5 {
		t.Errorf("box = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Errorf("quartiles = %f %f", b.Q1, b.Q3)
	}
	empty := BoxOf(nil)
	if !math.IsNaN(empty.Median) {
		t.Error("empty box should be NaN")
	}
}

func TestSpread(t *testing.T) {
	if s := Spread([]float64{10, 11, 10.5}); math.Abs(s-0.1) > 1e-12 {
		t.Errorf("spread = %f, want 0.1", s)
	}
	if Spread([]float64{5}) != 0 || Spread(nil) != 0 {
		t.Error("degenerate spreads should be 0")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
}

func TestPropertyBoxOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		b := BoxOf(vals)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMedianWithinRange(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		m := Median(vals)
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		return m >= s[0] && m <= s[len(s)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuantileNaNPropagation is the regression test for the silent-NaN bug:
// NaNs sort to the front of the order statistics, so a poisoned measurement
// used to shift every quantile (a NaN in three samples made the "median" the
// larger real value) instead of poisoning the summary like Spread does.
func TestQuantileNaNPropagation(t *testing.T) {
	nan := math.NaN()
	cases := [][]float64{
		{nan},
		{nan, 1, 2},
		{1, nan, 2},
		{1, 2, nan},
		{nan, nan, nan},
	}
	for _, vals := range cases {
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if got := Quantile(vals, q); !math.IsNaN(got) {
				t.Errorf("Quantile(%v, %g) = %g, want NaN", vals, q, got)
			}
		}
		if got := Median(vals); !math.IsNaN(got) {
			t.Errorf("Median(%v) = %g, want NaN", vals, got)
		}
		b := BoxOf(vals)
		for name, v := range map[string]float64{"Min": b.Min, "Q1": b.Q1, "Median": b.Median, "Q3": b.Q3, "Max": b.Max} {
			if !math.IsNaN(v) {
				t.Errorf("BoxOf(%v).%s = %g, want NaN", vals, name, v)
			}
		}
	}
	// And the clean path is unaffected.
	if got := Quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("Quantile without NaN = %g, want 2", got)
	}
}
