// Package check is the physics-invariant verification engine for the whole
// measurement pipeline (simulator → power model → sensor → K20Power
// analysis). It sweeps programs across clock configurations and asserts,
// per result, the invariant classes the paper's conclusions rest on:
//
//   - energy conservation: the reported energy matches the trapezoidal
//     ∫P·dt of the sensor trace that produced it, the per-repetition
//     identity AvgPower·ActiveTime = Energy holds, and the measured
//     medians stay within a bounded relative error of the simulator's
//     ground truth (TrueEnergy, TrueActiveTime);
//   - DVFS monotonicity: lowering a clock never shortens the active
//     runtime, and average power at 614 and 324 is strictly below default;
//   - ECC directionality: enabling ECC never speeds a program up nor saves
//     energy, and its runtime penalty on compute-bound codes stays small;
//   - determinism: a fresh Runner reproduces bit-identical Result structs
//     for the same (program, input, configuration, seed);
//   - replay-identity: the launch-trace replay engine (capture in
//     internal/sim plus the core trace cache) produces Results
//     bit-identical to a runner that simulates every configuration from
//     scratch (NoReplay), across every program and configuration;
//   - dense-grid frontier: the generated DVFS grid (internal/kepler.Grid,
//     swept by internal/frontier) keeps per-row runtime monotone and
//     energy valley-shaped in the core clock, and the default
//     configuration never strictly dominates a reported sweet spot (see
//     frontier.go).
//
// The engine is a library (used by `gpuchar -selfcheck` and CI) and the
// substrate of the golden-corpus tests in this package: any physics drift
// in internal/sim, internal/power, internal/sensor or internal/k20power
// surfaces as a readable violation or per-metric golden diff instead of
// silently changing the paper's tables.
package check

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/sensor"
)

// The engine's invariant tolerances, calibrated against the current physics
// with roughly 2x headroom over the worst observed margin, so real
// regressions trip them while sensor noise and run-to-run jitter do not.
// They are device-independent physics (energy conservation, DVFS
// monotonicity and ECC directionality hold on any profile); what the sweep
// covers comes from the device (see Run). Worst margins observed over the
// full 34x4 sweep (see Stats): energy-vs-truth 0.133, time-vs-truth 0.162,
// trace integral 0.105, identity 2e-16, DVFS runtime shrink 0.035
// (threshold detection at lower power levels), compute-bound ECC penalty
// 0.110 (ST). The dense-grid frontier margins are exactly 0 for all 34
// programs (the ground-truth surface is strictly monotone and
// valley-shaped), so the 0.02 tolerances are pure headroom.
const (
	// energyTruthTol bounds |Energy/TrueEnergy - 1| of each result.
	energyTruthTol = 0.25
	// timeTruthTol bounds |ActiveTime/TrueActiveTime - 1| of each result.
	timeTruthTol = 0.30
	// traceTol bounds the relative difference between a repetition's
	// reported energy and the trapezoidal integral of its raw sensor trace
	// over the active window.
	traceTol = 0.20
	// identityTol bounds |AvgPower*ActiveTime/Energy - 1| per repetition
	// (an exact identity of the analyzer, allowed only float round-off).
	identityTol = 1e-9
	// monoTol is the slack on cross-configuration runtime monotonicity
	// (covers sensor noise and run-to-run jitter on near-equal runtimes).
	monoTol = 0.07
	// computeBoundMin is the core-clock sensitivity above which a program
	// counts as compute-bound for the monotonicity and ECC invariants.
	computeBoundMin = 0.6
	// eccComputeMax bounds the ECC runtime penalty on compute-bound codes.
	eccComputeMax = 0.22
	// frontierTimeTol is the slack on dense-grid runtime monotonicity
	// within a grid row.
	frontierTimeTol = 0.02
	// frontierValleyTol is the slack on the dense-grid energy valley shape
	// within a grid row.
	frontierValleyTol = 0.02
)

// Violation is one failed invariant on one measured combination.
type Violation struct {
	// Invariant is the invariant class: "energy-conservation",
	// "dvfs-monotonicity", "ecc-directionality", "determinism",
	// "replay-identity", "dvfs-grid", "frontier-consistency",
	// "energy-attribution" or "calibration".
	Invariant string
	Program   string
	Input     string
	Config    string
	Detail    string
}

// String renders the violation on one line.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s/%s@%s: %s", v.Invariant, v.Program, v.Input, v.Config, v.Detail)
}

// Stats records the worst observed margin of every invariant, so tolerance
// drift is visible before it becomes a failure.
type Stats struct {
	MaxEnergyTruthErr    float64 // worst |Energy/TrueEnergy - 1|
	MaxTimeTruthErr      float64 // worst |ActiveTime/TrueActiveTime - 1|
	MaxTraceErr          float64 // worst trapezoid-vs-reported mismatch
	MaxIdentityErr       float64 // worst AvgPower*ActiveTime vs Energy
	MinPowerDrop324      float64 // smallest 1 - P(324)/P(default)
	MinPowerDrop614      float64 // smallest 1 - P(614)/P(default)
	MaxDVFSTimeShrink    float64 // worst runtime *decrease* at a lower clock
	MaxECCSpeedup        float64 // worst runtime decrease under ECC
	MaxECCComputePenalty float64 // worst ECC slowdown on a compute-bound code
	MaxFrontierTimeRise  float64 // worst in-row runtime rise on the dense grid
	MaxFrontierValleyErr float64 // worst in-row energy-valley wiggle
	MaxCalibErr          float64 // worst recovered-EnergyTable-entry rel error
}

// Report is the outcome of one verification sweep.
type Report struct {
	Programs int // programs swept
	Combos   int // program x configuration combinations
	Measured int // combinations that produced a measurement
	Excluded int // combinations rejected for insufficient samples
	Checks   int // individual invariant evaluations
	Stats    Stats

	Violations []Violation
}

// Ok reports whether every invariant held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Format writes a human-readable report.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "selfcheck: %d programs x %d configurations: %d measured, %d excluded (insufficient samples), %d invariant checks\n",
		r.Programs, r.Combos/max(r.Programs, 1), r.Measured, r.Excluded, r.Checks)
	fmt.Fprintf(w, "  worst margins: energy-vs-truth %.3f, time-vs-truth %.3f, trace integral %.3f, identity %.2e\n",
		r.Stats.MaxEnergyTruthErr, r.Stats.MaxTimeTruthErr, r.Stats.MaxTraceErr, r.Stats.MaxIdentityErr)
	fmt.Fprintf(w, "  power drop at 324 >= %.3f, at 614 >= %.3f; ECC max speedup %.4f, max compute-bound penalty %.4f\n",
		r.Stats.MinPowerDrop324, r.Stats.MinPowerDrop614, r.Stats.MaxECCSpeedup, r.Stats.MaxECCComputePenalty)
	fmt.Fprintf(w, "  dense grid: worst in-row runtime rise %.4f, worst energy-valley wiggle %.4f\n",
		r.Stats.MaxFrontierTimeRise, r.Stats.MaxFrontierValleyErr)
	fmt.Fprintf(w, "  attribution: per-class energies sum bit-exactly; worst calibration-entry error %.2e\n",
		r.Stats.MaxCalibErr)
	if r.Ok() {
		fmt.Fprintln(w, "  all invariants hold")
		return
	}
	fmt.Fprintf(w, "  %d VIOLATIONS:\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "   %s\n", v)
	}
}

// Run sweeps every program at the device's four canonical configurations
// through the runner and evaluates all invariant classes: per-result energy
// conservation, DVFS monotonicity, ECC directionality and energy
// attribution; the microbenchmark calibration at the baseline
// configuration; the frontier invariants on a reduced grid over
// frontierSubsetSize programs; determinism at the default configuration; and
// replay identity at every canonical configuration. dev is the GPU profile
// the sweep runs on; nil means the K20c. Hard measurement failures
// (validation errors, not sample insufficiency) abort with an error; physics
// inconsistencies are returned as violations in the report.
func Run(ctx context.Context, r *core.Runner, programs []core.Program, dev *kepler.Device) (*Report, error) {
	if dev == nil {
		dev = kepler.K20cDevice()
	}
	configs := dev.Configurations()

	r.KeepTraces = true
	results, err := r.MeasureEach(ctx, core.EnumerateCombos(programs, configs, false))
	if err != nil {
		return nil, fmt.Errorf("check: sweep failed: %w", err)
	}

	rep := &Report{Programs: len(programs), Combos: len(programs) * len(configs)}
	for pi, p := range programs {
		byConfig := make(map[string]*core.Result, len(configs))
		for ci, clk := range configs {
			if res := results[pi*len(configs)+ci]; res != nil {
				byConfig[clk.Name] = res
				rep.Measured++
			} else {
				rep.Excluded++
			}
		}

		for _, res := range byConfig {
			vs, n := checkEnergyConservation(res, &rep.Stats)
			rep.add(vs, n)
		}
		vs, n := checkDVFSMonotonicity(byConfig, &rep.Stats)
		rep.add(vs, n)
		vs, n = checkECCDirectionality(byConfig, dev, &rep.Stats)
		rep.add(vs, n)
		vs, n, err := checkAttribution(ctx, r, p, configs, byConfig)
		if err != nil {
			return nil, err
		}
		rep.add(vs, n)
	}

	vs, n, err := checkCalibration(ctx, r, dev, &rep.Stats)
	if err != nil {
		return nil, err
	}
	rep.add(vs, n)

	if err := checkFrontier(ctx, r, programs, dev, rep); err != nil {
		return nil, err
	}

	// Determinism: a fresh runner reproduces the default configuration.
	// Replay identity: a fresh runner that simulates every configuration
	// from scratch reproduces the main sweep, which priced every
	// configuration by replaying launch traces.
	vs, n, err = checkRerun(ctx, r, programs, []kepler.Clocks{dev.DefaultConfig()}, "determinism", false)
	if err != nil {
		return nil, err
	}
	rep.add(vs, n)
	vs, n, err = checkRerun(ctx, r, programs, configs, "replay-identity", true)
	if err != nil {
		return nil, err
	}
	rep.add(vs, n)
	sort.Slice(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		if a.Invariant != b.Invariant {
			return a.Invariant < b.Invariant
		}
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		return a.Config < b.Config
	})
	return rep, nil
}

// add folds one checker's outcome into the report: n is the number of
// individual invariant evaluations it performed, vs the ones that failed.
func (r *Report) add(vs []Violation, n int) {
	r.Checks += n
	r.Violations = append(r.Violations, vs...)
}

// coreSensitivity is core.CoreSensitivity over the program's results on the
// device's default and 614-role configurations; NaN when either is
// unmeasurable.
func coreSensitivity(byConfig map[string]*core.Result, dev *kepler.Device) float64 {
	cfgs := dev.Configurations()
	def, ok1 := byConfig[cfgs[0].Name]
	f614, ok2 := byConfig[cfgs[1].Name]
	if !ok1 || !ok2 {
		return math.NaN()
	}
	return core.CoreSensitivity(cfgs, def.ActiveTime, f614.ActiveTime)
}

// checkEnergyConservation evaluates the per-result energy invariants. It
// returns the violations and the number of individual checks evaluated.
func checkEnergyConservation(res *core.Result, st *Stats) ([]Violation, int) {
	var vs []Violation
	n := 0
	bad := func(format string, args ...any) {
		vs = append(vs, Violation{
			Invariant: "energy-conservation",
			Program:   res.Program, Input: res.Input, Config: res.Config,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	n++
	if !(res.ActiveTime > 0) || !(res.Energy > 0) || !(res.AvgPower > 0) {
		bad("non-positive measurement: time %g s, energy %g J, power %g W",
			res.ActiveTime, res.Energy, res.AvgPower)
		return vs, n
	}
	n++
	if !(res.TrueActiveTime > 0) || !(res.TrueEnergy > 0) {
		bad("missing ground truth: time %g s, energy %g J", res.TrueActiveTime, res.TrueEnergy)
		return vs, n
	}

	// Median vs ground truth.
	n++
	if rel := math.Abs(res.Energy/res.TrueEnergy - 1); true {
		st.MaxEnergyTruthErr = math.Max(st.MaxEnergyTruthErr, rel)
		if rel > energyTruthTol {
			bad("energy %.4g J off ground truth %.4g J by %.1f%% (tolerance %.1f%%)",
				res.Energy, res.TrueEnergy, 100*rel, 100*energyTruthTol)
		}
	}
	n++
	if rel := math.Abs(res.ActiveTime/res.TrueActiveTime - 1); true {
		st.MaxTimeTruthErr = math.Max(st.MaxTimeTruthErr, rel)
		if rel > timeTruthTol {
			bad("active time %.4g s off ground truth %.4g s by %.1f%% (tolerance %.1f%%)",
				res.ActiveTime, res.TrueActiveTime, 100*rel, 100*timeTruthTol)
		}
	}

	// Per-repetition identity and trace integral.
	for i, m := range res.Reps {
		n++
		if !(m.Energy > 0) || !(m.ActiveTime > 0) {
			bad("rep %d: non-positive measurement %v", i, m)
			continue
		}
		idErr := math.Abs(m.AvgPower*m.ActiveTime/m.Energy - 1)
		st.MaxIdentityErr = math.Max(st.MaxIdentityErr, idErr)
		if idErr > identityTol {
			bad("rep %d: AvgPower*ActiveTime = %.6g J but Energy = %.6g J (rel err %.2e)",
				i, m.AvgPower*m.ActiveTime, m.Energy, idErr)
		}
		if i < len(res.Traces) {
			n++
			integral := trapezoidActive(res.Traces[i], m)
			if integral <= 0 {
				bad("rep %d: sensor trace integrates to %.4g J", i, integral)
				continue
			}
			traceErr := math.Abs(integral/m.Energy - 1)
			st.MaxTraceErr = math.Max(st.MaxTraceErr, traceErr)
			if traceErr > traceTol {
				bad("rep %d: trapezoidal trace integral %.4g J vs reported %.4g J (off %.1f%%, tolerance %.1f%%)",
					i, integral, m.Energy, 100*traceErr, 100*traceTol)
			}
		}
	}
	return vs, n
}

// trapezoidActive integrates the raw sensor trace over the active window
// the analyzer detected for this measurement. The window is re-derived the
// same way k20power does — lag-compensate, then threshold — so the integral
// is an independent recomputation of the reported energy from the same
// samples (raw instead of compensated, hence the tolerance).
func trapezoidActive(trace []sensor.Sample, m k20power.Measurement) float64 {
	comp := k20power.Compensate(trace)
	first, last := -1, -1
	for i, s := range comp {
		if s.W >= m.ThresholdW {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || last <= first {
		return 0
	}
	var e float64
	for i := first; i < last; i++ {
		dt := trace[i+1].T - trace[i].T
		e += 0.5 * (trace[i].W + trace[i+1].W) * dt
	}
	// Edge halves, mirroring the analyzer's window extension.
	if first > 0 {
		e += trace[first].W * (trace[first].T - trace[first-1].T) / 2
	}
	if last+1 < len(trace) {
		e += trace[last].W * (trace[last+1].T - trace[last].T) / 2
	}
	return e
}

// checkDVFSMonotonicity evaluates the cross-configuration clock invariants
// on one program's results (keyed by configuration name). Every program
// does the same work at every configuration (the ordered block order reads
// no clock), so all of them are held to every check.
func checkDVFSMonotonicity(byConfig map[string]*core.Result, st *Stats) ([]Violation, int) {
	var vs []Violation
	n := 0
	bad := func(res *core.Result, format string, args ...any) {
		vs = append(vs, Violation{
			Invariant: "dvfs-monotonicity",
			Program:   res.Program, Input: res.Input, Config: res.Config,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	def := byConfig[kepler.Default.Name]
	f614 := byConfig[kepler.F614.Name]
	f324 := byConfig[kepler.F324.Name]

	// Lowering any clock must never shorten a program's runtime
	// (compute-bound codes stretch with the core clock; memory-bound ones
	// stay flat at 614 and stretch hugely at 324).
	pairs := []struct {
		slow, fast *core.Result
		transition string
	}{
		{f614, def, "default -> 614 MHz core"},
		{f324, f614, "614 -> 324 MHz core+memory"},
		{f324, def, "default -> 324 MHz core+memory"},
	}
	for _, pr := range pairs {
		if pr.slow == nil || pr.fast == nil {
			continue
		}
		n++
		shrink := 1 - pr.slow.ActiveTime/pr.fast.ActiveTime
		st.MaxDVFSTimeShrink = math.Max(st.MaxDVFSTimeShrink, shrink)
		if shrink > monoTol {
			bad(pr.slow, "program sped up by %.1f%% going %s", 100*shrink, pr.transition)
		}
	}
	if def != nil && f324 != nil {
		n++
		drop := 1 - f324.AvgPower/def.AvgPower
		st.MinPowerDrop324 = minNonZero(st.MinPowerDrop324, drop)
		if drop <= 0 {
			bad(f324, "average power %.1f W at 324 MHz not strictly below default %.1f W",
				f324.AvgPower, def.AvgPower)
		}
	}
	if def != nil && f614 != nil {
		n++
		drop := 1 - f614.AvgPower/def.AvgPower
		st.MinPowerDrop614 = minNonZero(st.MinPowerDrop614, drop)
		if drop <= 0 {
			bad(f614, "average power %.1f W at 614 MHz not below default %.1f W (V^2*f scaling)",
				f614.AvgPower, def.AvgPower)
		}
	}
	return vs, n
}

// checkECCDirectionality evaluates the ECC invariants on one program's
// results. ECC must never speed the program up nor save energy, and a code
// whose runtime scales with the core clock (measured compute-bound) must be
// nearly ECC-immune — a cross-configuration consistency relation between
// two independent responses of the same program.
func checkECCDirectionality(byConfig map[string]*core.Result, dev *kepler.Device, st *Stats) ([]Violation, int) {
	var vs []Violation
	n := 0
	def := byConfig[kepler.Default.Name]
	ecc := byConfig[kepler.ECCDefault.Name]
	if def == nil || ecc == nil {
		return nil, 0
	}
	bad := func(format string, args ...any) {
		vs = append(vs, Violation{
			Invariant: "ecc-directionality",
			Program:   ecc.Program, Input: ecc.Input, Config: ecc.Config,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	n++
	speedup := 1 - ecc.ActiveTime/def.ActiveTime
	st.MaxECCSpeedup = math.Max(st.MaxECCSpeedup, speedup)
	if speedup > monoTol {
		bad("ECC sped the program up by %.1f%% (%.4g s -> %.4g s); ECC only costs",
			100*speedup, def.ActiveTime, ecc.ActiveTime)
	}
	n++
	if esave := 1 - ecc.Energy/def.Energy; esave > monoTol {
		bad("ECC lowered energy by %.1f%% (%.4g J -> %.4g J); ECC only costs",
			100*esave, def.Energy, ecc.Energy)
	}
	sens := coreSensitivity(byConfig, dev)
	if !math.IsNaN(sens) && sens >= computeBoundMin {
		n++
		penalty := ecc.ActiveTime/def.ActiveTime - 1
		st.MaxECCComputePenalty = math.Max(st.MaxECCComputePenalty, penalty)
		if penalty > eccComputeMax {
			bad("ECC slowed a compute-bound code by %.1f%% (bound %.1f%%): ECC must hurt memory-bound codes only",
				100*penalty, 100*eccComputeMax)
		}
	}
	return vs, n
}

// checkRerun re-measures every program at every given configuration on a
// fresh Runner and compares the Results bitwise against r's, reporting each
// difference as a violation of invariant. With noReplay the fresh runner
// simulates every configuration from scratch, so any timing divergence
// between the main sweep's launch-trace replays and a full simulation — at
// any configuration, on any program — surfaces here.
func checkRerun(ctx context.Context, r *core.Runner, programs []core.Program, configs []kepler.Clocks, invariant string, noReplay bool) ([]Violation, int, error) {
	fresh := core.NewRunner()
	fresh.Repetitions = r.Repetitions
	fresh.KeepTraces = r.KeepTraces
	fresh.NoReplay = noReplay
	combos := core.EnumerateCombos(programs, configs, false)
	want, err := r.MeasureEach(ctx, combos)
	if err != nil {
		return nil, 0, fmt.Errorf("check: %s sweep failed: %w", invariant, err)
	}
	got, err := fresh.MeasureEach(ctx, combos)
	if err != nil {
		return nil, 0, fmt.Errorf("check: %s sweep failed: %w", invariant, err)
	}
	var vs []Violation
	for i, c := range combos {
		a, b := want[i], got[i]
		bad := func(format string, args ...any) {
			vs = append(vs, Violation{
				Invariant: invariant,
				Program:   c.Program.Name(), Input: c.Input, Config: c.Clocks.Name,
				Detail: fmt.Sprintf(format, args...),
			})
		}
		switch {
		case a == nil && b == nil:
		case a == nil || b == nil:
			bad("measurability differs from the fresh runner's: measurable %v vs %v", a != nil, b != nil)
		default:
			if d := diffResults(a, b); d != "" {
				bad("fresh runner diverged: %s", d)
			}
		}
	}
	return vs, len(combos), nil
}

// diffResults compares two Results bitwise, returning a description of the
// first difference ("" when identical). Traces are compared only when both
// runners retained them.
func diffResults(a, b *core.Result) string {
	switch {
	case a.Program != b.Program || a.Input != b.Input || a.Config != b.Config:
		return fmt.Sprintf("identity differs: %s/%s@%s vs %s/%s@%s",
			a.Program, a.Input, a.Config, b.Program, b.Input, b.Config)
	case a.ActiveTime != b.ActiveTime:
		return fmt.Sprintf("ActiveTime %v != %v", a.ActiveTime, b.ActiveTime)
	case a.Energy != b.Energy:
		return fmt.Sprintf("Energy %v != %v", a.Energy, b.Energy)
	case a.AvgPower != b.AvgPower:
		return fmt.Sprintf("AvgPower %v != %v", a.AvgPower, b.AvgPower)
	case a.TrueActiveTime != b.TrueActiveTime:
		return fmt.Sprintf("TrueActiveTime %v != %v", a.TrueActiveTime, b.TrueActiveTime)
	case a.TrueEnergy != b.TrueEnergy:
		return fmt.Sprintf("TrueEnergy %v != %v", a.TrueEnergy, b.TrueEnergy)
	case len(a.Reps) != len(b.Reps):
		return fmt.Sprintf("repetition count %d != %d", len(a.Reps), len(b.Reps))
	}
	for i := range a.Reps {
		if a.Reps[i] != b.Reps[i] {
			return fmt.Sprintf("rep %d differs: %+v vs %+v", i, a.Reps[i], b.Reps[i])
		}
	}
	if len(a.Traces) > 0 && len(b.Traces) > 0 {
		if len(a.Traces) != len(b.Traces) {
			return fmt.Sprintf("trace count %d != %d", len(a.Traces), len(b.Traces))
		}
		for i := range a.Traces {
			if len(a.Traces[i]) != len(b.Traces[i]) {
				return fmt.Sprintf("trace %d length %d != %d", i, len(a.Traces[i]), len(b.Traces[i]))
			}
			for j := range a.Traces[i] {
				if a.Traces[i][j] != b.Traces[i][j] {
					return fmt.Sprintf("trace %d sample %d differs: %+v vs %+v",
						i, j, a.Traces[i][j], b.Traces[i][j])
				}
			}
		}
	}
	return ""
}

// minNonZero treats the zero value as "unset" so Stats minima initialize
// correctly.
func minNonZero(cur, v float64) float64 {
	if cur == 0 || v < cur {
		return v
	}
	return cur
}
