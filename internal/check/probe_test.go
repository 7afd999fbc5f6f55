package check

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/suites"
)

// Temporary calibration probe: dumps per-program cross-config ratios and
// the engine's worst margins. Run with CHECK_PROBE=1.
func TestProbeMargins(t *testing.T) {
	if os.Getenv("CHECK_PROBE") == "" {
		t.Skip("probe")
	}
	r := core.NewRunner()
	rep, err := Run(context.Background(), r, suites.All(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("STATS: %+v\n", rep.Stats)
	fmt.Printf("measured %d excluded %d\n", rep.Measured, rep.Excluded)

	fmt.Printf("%-12s %-5s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"prog", "irr", "sens", "t614/def", "t324/614", "tecc/def", "Eecc/def", "P614/def", "P324/def", "dE/truth", "dT/truth")
	for _, p := range suites.All() {
		get := func(clk kepler.Clocks) *core.Result {
			res, err := r.Measure(context.Background(), p, p.DefaultInput(), clk)
			if err != nil {
				return nil
			}
			return res
		}
		def, f614, f324, ecc := get(kepler.Default), get(kepler.F614), get(kepler.F324), get(kepler.ECCDefault)
		rat := func(a, b *core.Result, f func(*core.Result) float64) float64 {
			if a == nil || b == nil {
				return math.NaN()
			}
			return f(a) / f(b)
		}
		at := func(r *core.Result) float64 { return r.ActiveTime }
		en := func(r *core.Result) float64 { return r.Energy }
		pw := func(r *core.Result) float64 { return r.AvgPower }
		sens := math.NaN()
		if def != nil && f614 != nil {
			sens = (f614.ActiveTime/def.ActiveTime - 1) / (705.0/614.0 - 1)
		}
		dE, dT := math.NaN(), math.NaN()
		if def != nil {
			dE = def.Energy/def.TrueEnergy - 1
			dT = def.ActiveTime/def.TrueActiveTime - 1
		}
		fmt.Printf("%-12s %-5v %8.3f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f\n",
			p.Name(), p.Irregular(), sens,
			rat(f614, def, at), rat(f324, f614, at), rat(ecc, def, at), rat(ecc, def, en),
			rat(f614, def, pw), rat(f324, def, pw), dE, dT)
	}
	// Worst truth deviations across ALL configs.
	var worstE, worstT float64
	for _, p := range suites.All() {
		for _, clk := range kepler.Configs {
			res, err := r.Measure(context.Background(), p, p.DefaultInput(), clk)
			if err != nil {
				continue
			}
			if v := math.Abs(res.Energy/res.TrueEnergy - 1); v > worstE {
				worstE = v
				fmt.Printf("truthE %s@%s %.4f\n", p.Name(), clk.Name, v)
			}
			if v := math.Abs(res.ActiveTime/res.TrueActiveTime - 1); v > worstT {
				worstT = v
				fmt.Printf("truthT %s@%s %.4f\n", p.Name(), clk.Name, v)
			}
		}
	}
	fmt.Printf("worst truth: energy %.4f time %.4f\n", worstE, worstT)
}
