package check

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/suites"
)

// The full invariant sweep (34 programs x 4 configurations plus the
// determinism re-sweep) takes a couple of minutes, so every test in this
// package shares one runner and one report.
var (
	sweepOnce   sync.Once
	sweepRunner *core.Runner
	sweepReport *Report
	sweepErr    error
)

func sharedSweep(t *testing.T) (*core.Runner, *Report) {
	t.Helper()
	sweepOnce.Do(func() {
		sweepRunner = core.NewRunner()
		sweepReport, sweepErr = Run(context.Background(), sweepRunner, suites.All(), DefaultOptions())
	})
	if sweepErr != nil {
		t.Fatalf("verification sweep failed: %v", sweepErr)
	}
	return sweepRunner, sweepReport
}

// TestInvariantSweep is the tentpole: every program at every clock
// configuration must satisfy all four invariant classes.
func TestInvariantSweep(t *testing.T) {
	_, rep := sharedSweep(t)

	var buf strings.Builder
	rep.Format(&buf)
	t.Logf("\n%s", buf.String())

	if want := len(suites.All()); rep.Programs != want {
		t.Errorf("swept %d programs, want %d", rep.Programs, want)
	}
	if want := rep.Programs * len(kepler.Configs); rep.Combos != want {
		t.Errorf("%d combinations, want %d", rep.Combos, want)
	}
	if rep.Measured+rep.Excluded != rep.Combos {
		t.Errorf("measured %d + excluded %d != combos %d", rep.Measured, rep.Excluded, rep.Combos)
	}
	// The paper's central methodological point: most programs are
	// unmeasurable at 324 MHz yet the default config measures everything.
	if rep.Excluded == 0 {
		t.Error("no combination excluded: the 324 MHz insufficiency criterion stopped firing")
	}
	if rep.Measured < 3*rep.Programs {
		t.Errorf("only %d combinations measured; default, 614 and ECC should all measure every program", rep.Measured)
	}
	if rep.Checks == 0 {
		t.Error("report counted zero invariant evaluations")
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestSweepStatsPopulated pins that the sweep exercised every invariant
// class for real: each worst-margin statistic must have moved off its
// zero value, or the corresponding check was silently skipped.
func TestSweepStatsPopulated(t *testing.T) {
	_, rep := sharedSweep(t)
	st := rep.Stats
	if st.MaxEnergyTruthErr <= 0 || st.MaxTimeTruthErr <= 0 {
		t.Errorf("truth margins never recorded: %+v", st)
	}
	if st.MaxTraceErr <= 0 {
		t.Error("trace-integral check never ran (traces not retained?)")
	}
	if st.MinPowerDrop324 <= 0 || st.MinPowerDrop614 <= 0 {
		t.Errorf("power-drop margins not recorded: 324=%v 614=%v", st.MinPowerDrop324, st.MinPowerDrop614)
	}
	if st.MaxECCComputePenalty <= 0 {
		t.Error("no compute-bound program hit the ECC penalty check")
	}
}

// --- negative controls: each checker must actually fire on corrupted data ---

// fakeResult builds a self-consistent measured result for synthetic checks.
func fakeResult(name, config string, activeTime, avgPower float64) *core.Result {
	energy := avgPower * activeTime
	m := k20power.Measurement{
		ActiveTime: activeTime, Energy: energy, AvgPower: avgPower,
		IdleW: 25, PeakW: avgPower * 1.2, ThresholdW: 40, ActiveSamples: 50,
	}
	return &core.Result{
		Program: name, Input: "in", Config: config,
		ActiveTime: activeTime, Energy: energy, AvgPower: avgPower,
		TrueActiveTime: activeTime, TrueEnergy: energy,
		Reps: []k20power.Measurement{m, m, m},
	}
}

func violationCount(vs []Violation, substr string) int {
	n := 0
	for _, v := range vs {
		if strings.Contains(v.String(), substr) {
			n++
		}
	}
	return n
}

func TestEnergyConservationDetectsCorruption(t *testing.T) {
	opt := DefaultOptions()
	var st Stats

	good := fakeResult("GOOD", "default", 2.0, 80)
	if vs, n := checkEnergyConservation(good, 0.7, opt, &st); len(vs) != 0 || n == 0 {
		t.Fatalf("clean result flagged: %v (n=%d)", vs, n)
	}

	offTruth := fakeResult("BAD", "default", 2.0, 80)
	offTruth.Energy *= 1 + 2*opt.EnergyTruthTol
	vs, _ := checkEnergyConservation(offTruth, 0.7, opt, &st)
	if violationCount(vs, "off ground truth") == 0 {
		t.Errorf("energy %.0f%% off truth not flagged: %v", 200*opt.EnergyTruthTol, vs)
	}

	badIdentity := fakeResult("BAD", "default", 2.0, 80)
	badIdentity.Reps[1].Energy *= 1.001 // breaks AvgPower*ActiveTime == Energy
	vs, _ = checkEnergyConservation(badIdentity, 0.7, opt, &st)
	if violationCount(vs, "rep 1") == 0 {
		t.Errorf("broken per-rep identity not flagged: %v", vs)
	}

	negative := fakeResult("BAD", "default", 2.0, 80)
	negative.Energy = -1
	vs, _ = checkEnergyConservation(negative, 0.7, opt, &st)
	if violationCount(vs, "non-positive") == 0 {
		t.Errorf("negative energy not flagged: %v", vs)
	}
}

func TestDVFSMonotonicityDetectsSpeedup(t *testing.T) {
	opt := DefaultOptions()
	var st Stats
	byConfig := map[string]*core.Result{
		kepler.Default.Name: fakeResult("X", kepler.Default.Name, 2.0, 80),
		kepler.F614.Name:    fakeResult("X", kepler.F614.Name, 1.5, 70), // faster at a lower clock
		kepler.F324.Name:    fakeResult("X", kepler.F324.Name, 4.0, 45),
	}
	vs, n := checkDVFSMonotonicity(byConfig, opt, &st)
	if violationCount(vs, "sped up") == 0 {
		t.Errorf("25%% speedup at 614 MHz not flagged: %v", vs)
	}
	if n == 0 {
		t.Error("no checks counted")
	}

	// Power NOT dropping at 324 must fire.
	byConfig[kepler.F324.Name] = fakeResult("X", kepler.F324.Name, 4.0, 85)
	vs, _ = checkDVFSMonotonicity(byConfig, opt, &st)
	if violationCount(vs, "not strictly below") == 0 {
		t.Errorf("power rise at 324 MHz not flagged: %v", vs)
	}
}

func TestECCDirectionalityDetectsImpossibleGains(t *testing.T) {
	opt := DefaultOptions()
	var st Stats
	mk := func(eccTime, eccPower float64) map[string]*core.Result {
		return map[string]*core.Result{
			kepler.Default.Name:    fakeResult("X", kepler.Default.Name, 2.0, 80),
			kepler.ECCDefault.Name: fakeResult("X", kepler.ECCDefault.Name, eccTime, eccPower),
		}
	}

	vs, n := checkECCDirectionality(mk(1.5, 80), opt, &st)
	if violationCount(vs, "sped the program up") == 0 {
		t.Errorf("ECC speedup not flagged: %v", vs)
	}
	if n == 0 {
		t.Error("no checks counted")
	}

	vs, _ = checkECCDirectionality(mk(2.0, 60), opt, &st)
	if violationCount(vs, "lowered energy") == 0 {
		t.Errorf("ECC energy saving not flagged: %v", vs)
	}

	// A strongly compute-bound code (runtime tracks the core clock 1:1)
	// suffering a 25% ECC penalty is physically inconsistent.
	byConfig := mk(2.5, 80)
	def := byConfig[kepler.Default.Name]
	f614 := fakeResult("X", kepler.F614.Name, def.ActiveTime*float64(kepler.Default.CoreMHz)/float64(kepler.F614.CoreMHz), 70)
	byConfig[kepler.F614.Name] = f614
	vs, _ = checkECCDirectionality(byConfig, opt, &st)
	if violationCount(vs, "compute-bound") == 0 {
		t.Errorf("large ECC penalty on compute-bound code not flagged: %v", vs)
	}
}

func TestDiffResultsReportsFirstDivergence(t *testing.T) {
	a := fakeResult("X", "default", 2.0, 80)
	b := fakeResult("X", "default", 2.0, 80)
	if d := diffResults(a, b); d != "" {
		t.Fatalf("identical results reported different: %s", d)
	}
	b.Energy += 1e-12
	if d := diffResults(a, b); !strings.Contains(d, "Energy") {
		t.Errorf("1e-12 J energy drift not reported: %q", d)
	}
	b = fakeResult("X", "default", 2.0, 80)
	b.Reps[2].AvgPower += 1e-9
	if d := diffResults(a, b); !strings.Contains(d, "rep 2") {
		t.Errorf("per-rep drift not reported: %q", d)
	}
}

// TestTrapezoidActivePlateau checks the independent energy recomputation on
// a synthetic trace: idle floor, clean plateau, idle tail.
func TestTrapezoidActivePlateau(t *testing.T) {
	const (
		idleW    = 25.0
		plateauW = 100.0
		dt       = 0.1
	)
	var trace []sensor.Sample
	for i := 0; i < 40; i++ { // 0.0..3.9s: idle until 1.0, plateau to 3.0, idle after
		w := idleW
		if i >= 10 && i <= 30 {
			w = plateauW
		}
		trace = append(trace, sensor.Sample{T: float64(i) * dt, W: w})
	}
	m := k20power.Measurement{ThresholdW: (idleW + plateauW) / 2}
	got := trapezoidActive(trace, m, 0.7)
	want := plateauW * (2.0 + dt) // plateau span plus the two edge halves
	if math.Abs(got/want-1) > 0.02 {
		t.Errorf("plateau integral %.2f J, want about %.2f J", got, want)
	}

	if e := trapezoidActive(nil, m, 0.7); e != 0 {
		t.Errorf("empty trace integrated to %v", e)
	}
	flat := []sensor.Sample{{T: 0, W: idleW}, {T: 1, W: idleW}}
	if e := trapezoidActive(flat, m, 0.7); e != 0 {
		t.Errorf("never-active trace integrated to %v", e)
	}
}

// TestRunRejectsHardFailures pins that a validation error aborts the sweep
// with an error instead of being silently skipped like insufficiency.
func TestRunRejectsHardFailures(t *testing.T) {
	r := core.NewRunner()
	_, err := Run(context.Background(), r, []core.Program{newBrokenProgram()}, DefaultOptions())
	if err == nil {
		t.Fatal("sweep over a failing program returned no error")
	}
	if !strings.Contains(err.Error(), "BROKEN") {
		t.Errorf("error does not identify the failing program: %v", err)
	}
}

type brokenProgram struct{ core.Meta }

func newBrokenProgram() brokenProgram {
	return brokenProgram{core.Meta{
		ProgName: "BROKEN", ProgSuite: core.SuiteSDK, Desc: "always fails",
		Kernels: 1, InputNames: []string{"in"}, Default: "in",
	}}
}

func (brokenProgram) Run(ctx context.Context, dev *sim.Device, input string) error {
	return core.Validatef("BROKEN", "deliberate failure")
}
