// Package coretest holds the repository's integration tests: full-stack
// measurements through device, power model, sensor and K20Power analysis,
// asserting the paper's qualitative findings (who wins, by roughly what
// factor, where the crossovers fall).
package coretest

import (
	"context"
	"errors"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/sim"
	"repro/internal/suites"
)

// simulateDefault runs p with the input on a K20c GPU and prices the run at
// the default configuration.
func simulateDefault(p core.Program, input string) (*sim.Device, error) {
	gpu := sim.NewGPU(kepler.K20cDevice())
	if err := p.Run(context.Background(), gpu, input); err != nil {
		return nil, err
	}
	return gpu.Trace().Replay(kepler.Default)
}

// sharedRunner caches measurements across the tests in this package.
var sharedRunner = core.NewRunner()

func measure(t *testing.T, name, input string, clk kepler.Clocks) *core.Result {
	t.Helper()
	p, err := suites.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if input == "" {
		input = p.DefaultInput()
	}
	res, err := sharedRunner.Measure(context.Background(), p, input, clk)
	if err != nil {
		t.Fatalf("%s/%s@%s: %v", name, input, clk.Name, err)
	}
	return res
}

// Paper V.A.1: compute-bound codes slow roughly with the core clock at the
// 614 configuration, power drops at least as much as the frequency, and
// energy does not rise.
func TestComputeBound614Shape(t *testing.T) {
	def := measure(t, "NB", "", kepler.Default)
	f614 := measure(t, "NB", "", kepler.F614)
	timeRatio := f614.ActiveTime / def.ActiveTime
	if timeRatio < 1.05 || timeRatio > 1.25 {
		t.Errorf("NB 614/default time = %.3f, want ~1.15", timeRatio)
	}
	powerRatio := f614.AvgPower / def.AvgPower
	if powerRatio > 1-0.13 {
		t.Errorf("NB 614/default power = %.3f, want a drop exceeding the 13%% frequency drop", powerRatio)
	}
	if e := f614.Energy / def.Energy; e > 1.03 {
		t.Errorf("NB 614/default energy = %.3f, want <= ~1", e)
	}
}

// Paper V.A.1: memory-bound codes barely notice the 614 configuration.
func TestMemoryBound614Flat(t *testing.T) {
	def := measure(t, "STEN", "", kepler.Default)
	f614 := measure(t, "STEN", "", kepler.F614)
	if r := f614.ActiveTime / def.ActiveTime; r > 1.06 {
		t.Errorf("STEN 614/default time = %.3f, want ~1.0 (memory bound)", r)
	}
}

// Paper V.A.2: the 324 configuration slows everything by at least ~1.9x,
// and memory-bound codes far more (LBM: 7.75x).
func TestF324Slowdowns(t *testing.T) {
	nbDef := measure(t, "NB", "", kepler.F614)
	nb324 := measure(t, "NB", "", kepler.F324)
	if r := nb324.ActiveTime / nbDef.ActiveTime; r < 1.8 {
		t.Errorf("NB 324/614 time = %.3f, want >= ~1.9", r)
	}
	lbmDef := measure(t, "LBM", "", kepler.F614)
	lbm324 := measure(t, "LBM", "", kepler.F324)
	r := lbm324.ActiveTime / lbmDef.ActiveTime
	if r < 5.5 || r > 10 {
		t.Errorf("LBM 324/614 time = %.3f, want ~7.75 (paper)", r)
	}
	// And power roughly halves while energy rises.
	if p := lbm324.AvgPower / lbmDef.AvgPower; p > 0.65 {
		t.Errorf("LBM 324/614 power = %.3f, want ~0.5", p)
	}
	if e := lbm324.Energy / lbmDef.Energy; e < 1.2 {
		t.Errorf("LBM 324/614 energy = %.3f, want a clear increase", e)
	}
}

// Paper V.A.3: ECC slows memory-bound codes up to ~12.5%, barely touches
// compute-bound codes, and on irregular codes raises energy more than
// runtime.
func TestECCShape(t *testing.T) {
	nbDef := measure(t, "NB", "", kepler.Default)
	nbECC := measure(t, "NB", "", kepler.ECCDefault)
	if r := nbECC.ActiveTime / nbDef.ActiveTime; r > 1.04 {
		t.Errorf("NB ECC/default time = %.3f, want ~1.0 (compute bound)", r)
	}
	stDef := measure(t, "STEN", "", kepler.Default)
	stECC := measure(t, "STEN", "", kepler.ECCDefault)
	r := stECC.ActiveTime / stDef.ActiveTime
	if r < 1.04 || r > 1.35 {
		t.Errorf("STEN ECC/default time = %.3f, want a clear slowdown near 12.5%%", r)
	}
	// Irregular: energy rises more than runtime (use the small input to
	// keep the test fast).
	lbDef := measure(t, "L-BFS", "lakes", kepler.Default)
	lbECC := measure(t, "L-BFS", "lakes", kepler.ECCDefault)
	tr := lbECC.ActiveTime / lbDef.ActiveTime
	er := lbECC.Energy / lbDef.Energy
	if tr <= 1.0 {
		t.Fatalf("L-BFS ECC did not slow down (%.3f)", tr)
	}
	if er <= tr {
		t.Errorf("L-BFS ECC energy ratio %.3f <= time ratio %.3f; paper: Lonestar energy rises more", er, tr)
	}
}

// Paper V.B.1/Table 3: the atomic BFS variant beats the default by 2x+ in
// time and energy; wla draws noticeably less power than the default.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full usa-input comparison is slow")
	}
	def := measure(t, "L-BFS", "usa", kepler.Default)
	atomic := measure(t, "L-BFS-atomic", "usa", kepler.Default)
	wla := measure(t, "L-BFS-wla", "usa", kepler.Default)
	if r := atomic.ActiveTime / def.ActiveTime; r > 0.5 {
		t.Errorf("atomic/default time = %.3f, want ~0.31 (at least 2x faster)", r)
	}
	if r := atomic.Energy / def.Energy; r > 0.5 {
		t.Errorf("atomic/default energy = %.3f, want ~0.27", r)
	}
	if r := wla.AvgPower / def.AvgPower; r > 0.92 {
		t.Errorf("wla/default power = %.3f, want a clear reduction", r)
	}
	// SSSP: wlc clearly better, wln clearly worse.
	sdef := measure(t, "SSSP", "usa", kepler.Default)
	wlc := measure(t, "SSSP-wlc", "usa", kepler.Default)
	wln := measure(t, "SSSP-wln", "usa", kepler.Default)
	if r := wlc.ActiveTime / sdef.ActiveTime; r > 0.8 {
		t.Errorf("wlc/default time = %.3f, want ~0.56", r)
	}
	if r := wln.ActiveTime / sdef.ActiveTime; r < 1.5 {
		t.Errorf("wln/default time = %.3f, want ~2.4 (worse than default)", r)
	}
}

// Paper V.B.1: the wlw and wlc BFS variants run too fast for the power
// sensor to collect enough samples.
func TestFastVariantsNotMeasurable(t *testing.T) {
	if testing.Short() {
		t.Skip("usa input is slow")
	}
	for _, name := range []string{"L-BFS-wlw", "L-BFS-wlc"} {
		p, err := suites.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sharedRunner.Measure(context.Background(), p, "usa", kepler.Default)
		if err == nil {
			t.Errorf("%s was measurable; the paper reports insufficient samples", name)
			continue
		}
		if !errors.Is(err, k20power.ErrInsufficientSamples) && !errors.Is(err, k20power.ErrNoActivity) {
			t.Errorf("%s failed with %v, want an insufficiency error", name, err)
		}
	}
}

// Paper Table 4: per processed edge, L-BFS is cheapest and S-BFS costs
// orders of magnitude more.
func TestTable4Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-suite BFS comparison is slow")
	}
	rows, err := core.Table4(context.Background(), sharedRunner, suites.BFSCross(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]core.Table4Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	l, p, r, s := byName["L-BFS"], byName["P-BFS"], byName["R-BFS"], byName["S-BFS"]
	if !(l.TimeEdge < r.TimeEdge && r.TimeEdge < p.TimeEdge && p.TimeEdge < s.TimeEdge) {
		t.Errorf("per-edge time ordering wrong: L %.2f R %.2f P %.2f S %.2f",
			l.TimeEdge, r.TimeEdge, p.TimeEdge, s.TimeEdge)
	}
	if s.TimeEdge < 50*l.TimeEdge {
		t.Errorf("S-BFS per-edge time %.2f not orders of magnitude above L-BFS %.3f", s.TimeEdge, l.TimeEdge)
	}
	if s.EnergyEdge < 50*l.EnergyEdge {
		t.Errorf("S-BFS per-edge energy %.2f not orders of magnitude above L-BFS %.3f", s.EnergyEdge, l.EnergyEdge)
	}
}

// Paper V.B.2/Figure 5: power tends to increase with larger inputs on
// regular codes.
func TestInputScalingPower(t *testing.T) {
	small := measure(t, "NB", "100k", kepler.Default)
	large := measure(t, "NB", "1m", kepler.Default)
	if large.AvgPower <= small.AvgPower {
		t.Errorf("NB power did not increase with input: %.1f -> %.1f W", small.AvgPower, large.AvgPower)
	}
}

// Paper V.C/Figure 6: compute-bound SDK codes draw about 100 W, and every
// program's power falls when the clocks fall.
func TestAbsolutePowerBands(t *testing.T) {
	nb := measure(t, "NB", "", kepler.Default)
	if nb.AvgPower < 85 || nb.AvgPower > 170 {
		t.Errorf("NB power = %.1f W, want the paper's ~100+ band", nb.AvgPower)
	}
	for _, name := range []string{"NB", "STEN", "MST"} {
		def := measure(t, name, "", kepler.Default)
		f614 := measure(t, name, "", kepler.F614)
		if f614.AvgPower >= def.AvgPower {
			t.Errorf("%s: power did not fall at 614 (%.1f -> %.1f W)", name, def.AvgPower, f614.AvgPower)
		}
	}
}

// Measurement-stack sanity: the measured values track the simulator's
// ground truth within the sensor's accuracy.
func TestMeasurementTracksTruth(t *testing.T) {
	res := measure(t, "NB", "", kepler.Default)
	if res.TrueActiveTime <= 0 {
		t.Fatal("no ground truth")
	}
	relT := res.ActiveTime/res.TrueActiveTime - 1
	relE := res.Energy/res.TrueEnergy - 1
	if relT < -0.12 || relT > 0.12 {
		t.Errorf("measured time off truth by %.1f%%", 100*relT)
	}
	if relE < -0.15 || relE > 0.15 {
		t.Errorf("measured energy off truth by %.1f%%", 100*relE)
	}
}

// Table 2 shape: average run-to-run variability stays in the low percent
// range, as the paper reports.
func TestVariabilityBand(t *testing.T) {
	rows, err := core.Table2(context.Background(), sharedRunner, []core.Program{
		mustProg(t, "NB"), mustProg(t, "STEN"), mustProg(t, "SC"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AvgTime > 0.10 || r.AvgEnergy > 0.10 {
			t.Errorf("%s: avg variability %.1f%%/%.1f%% too high", r.Suite, 100*r.AvgTime, 100*r.AvgEnergy)
		}
	}
}

func mustProg(t *testing.T, name string) core.Program {
	t.Helper()
	p, err := suites.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Paper IV.B: the same findings hold on the K20m, K20x and K40 after
// scaling the absolute measurements.
func TestCrossGPUFindingsAgree(t *testing.T) {
	rows, err := core.CrossGPU(context.Background(), sharedRunner, []core.Program{
		mustProg(t, "NB"), mustProg(t, "STEN"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Group ratios by program; across boards they must agree tightly while
	// absolute power must differ between the K20c and the K40.
	timeByProg := map[string][]float64{}
	powerByBoard := map[string]float64{}
	for _, r := range rows {
		timeByProg[r.Program] = append(timeByProg[r.Program], r.Time)
		if r.Program == "NB" {
			powerByBoard[r.Board] = r.DefaultPower
		}
	}
	for prog, ts := range timeByProg {
		lo, hi := ts[0], ts[0]
		for _, v := range ts {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > 0.06 {
			t.Errorf("%s: 614 time ratios spread %.3f across boards; want the same finding", prog, hi-lo)
		}
	}
	if powerByBoard["K40"] <= powerByBoard["K20c"] {
		t.Errorf("K40 absolute power %.1f not above K20c %.1f; scaling should differ",
			powerByBoard["K40"], powerByBoard["K20c"])
	}
}

// Every program must validate on EVERY declared input (not just the
// default). Slow: simulates all 34 programs on all inputs.
func TestAllProgramsAllInputsValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("full input sweep is slow")
	}
	for _, p := range append(suites.All(), suites.Variants()...) {
		p := p
		for _, input := range p.Inputs() {
			input := input
			t.Run(p.Name()+"/"+input, func(t *testing.T) {
				t.Parallel()
				dev, err := simulateDefault(p, input)
				if err != nil {
					t.Fatal(err)
				}
				if dev.ActiveTime() <= 0 {
					t.Fatal("no active time")
				}
				if len(dev.Launches) == 0 {
					t.Fatal("no kernels launched")
				}
			})
		}
	}
}

// Determinism: the same program, input and configuration must produce an
// identical simulated timeline (the caching runner depends on it).
func TestSimulationDeterminism(t *testing.T) {
	p := mustProg(t, "DMR")
	run := func() (float64, int) {
		dev, err := simulateDefault(p, "250k")
		if err != nil {
			t.Fatal(err)
		}
		return dev.ActiveTime(), len(dev.Launches)
	}
	t1, l1 := run()
	t2, l2 := run()
	if t1 != t2 || l1 != l2 {
		t.Errorf("nondeterministic simulation: %.9f/%d vs %.9f/%d", t1, l1, t2, l2)
	}
}

// Every program's recorded hardware statistics must be physically
// plausible: work on every launch, bounded divergence and coalescing, and
// irregular programs scattering more than regular streaming ones.
func TestProgramStatsPlausible(t *testing.T) {
	type agg struct {
		name      string
		irregular bool
		eff       float64
	}
	var aggs []agg
	for _, p := range suites.All() {
		p := p
		input := p.Inputs()[0] // smallest input keeps this test quick
		dev, err := simulateDefault(p, input)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		var warps, txns, compute, bytes int64
		var fetched int64
		for _, l := range dev.Launches {
			s := l.Stats
			warps += s.Warps
			txns += s.GlobalTxns
			compute += s.ComputeInsts()
			bytes += s.GlobalBytes
			fetched += s.GlobalTxns * 128
			if d := s.DivergenceRatio(); d < 1 || d > 32 {
				t.Errorf("%s/%s: divergence ratio %f out of [1,32]", p.Name(), l.Name, d)
			}
			if e := s.SIMDEfficiency(); e <= 0 || e > 1 {
				t.Errorf("%s/%s: SIMD efficiency %f out of (0,1]", p.Name(), l.Name, e)
			}
		}
		if warps == 0 || txns == 0 || compute == 0 {
			t.Errorf("%s: empty statistics (warps %d, txns %d, compute %d)",
				p.Name(), warps, txns, compute)
			continue
		}
		eff := float64(bytes) / float64(fetched)
		if eff <= 0 || eff > 1.0+1e-9 {
			t.Errorf("%s: coalescing efficiency %f out of (0,1]", p.Name(), eff)
		}
		aggs = append(aggs, agg{p.Name(), p.Irregular(), eff})
	}
	// The irregular group must be, on average, clearly less coalesced.
	var irrSum, irrN, regSum, regN float64
	for _, a := range aggs {
		if a.irregular {
			irrSum += a.eff
			irrN++
		} else {
			regSum += a.eff
			regN++
		}
	}
	if irrN == 0 || regN == 0 {
		t.Fatal("missing a group")
	}
	if irrSum/irrN >= regSum/regN {
		t.Errorf("irregular programs mean coalescing %.3f >= regular %.3f",
			irrSum/irrN, regSum/regN)
	}
}

// Paper IV.A: several suite programs could not be used because their
// runtimes are too short for the power sensor. They run, validate, and are
// rejected by the measurement stack.
func TestTooShortProgramsRejected(t *testing.T) {
	for _, p := range suites.TooShort() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			// The program itself must run and validate...
			if _, err := simulateDefault(p, p.DefaultInput()); err != nil {
				t.Fatal(err)
			}
			// ...but measuring it must fail for lack of samples.
			_, err := sharedRunner.Measure(context.Background(), p, p.DefaultInput(), kepler.Default)
			if err == nil {
				t.Fatal("short program was measurable")
			}
			if !core.IsInsufficient(err) {
				t.Fatalf("wrong error kind: %v", err)
			}
		})
	}
}

// The full findings checklist — the paper's enumerated conclusions checked
// live — must reproduce every claim.
func TestVerifyFindings(t *testing.T) {
	if os.Getenv("GPUCHAR_FINDINGS") == "" {
		t.Skip("full findings sweep exceeds the default go-test timeout; set GPUCHAR_FINDINGS=1 (and -timeout 40m) to run, or use gpuchar -exp findings")
	}
	findings, err := core.VerifyFindings(context.Background(), sharedRunner, suites.All(),
		suites.LBFSVariants(), suites.SSSPVariants(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) < 10 {
		t.Fatalf("only %d findings evaluated", len(findings))
	}
	for _, f := range findings {
		if !f.Pass {
			t.Errorf("finding %s not reproduced: %s (%s)", f.ID, f.Claim, f.Detail)
		}
	}
}
