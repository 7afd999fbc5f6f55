// Package frontier sweeps programs across a dense DVFS grid and computes
// their energy-efficiency frontier: per-configuration (runtime, energy)
// points, the Pareto-optimal front, EDP and ED²P sweet spots, and a
// budgeted "chase the sweet spot" optimizer that finds the EDP optimum in a
// fraction of the grid evaluations.
//
// The paper stops at four clock configurations; the launch-trace replay
// engine (internal/sim, PR 5) makes additional configurations nearly free
// for clock-insensitive programs, so the frontier sweeps ~100 instead. Every
// shipped program is clock-insensitive. Cost stays bounded for a program
// that reads the simulated clock mid-run — whose trace refuses replay —
// via a coarse-grid + interpolation fallback: only every coarseStride-th
// core clock per (memory clock, ECC) row is simulated, and the points in
// between are linearly interpolated in core frequency and flagged.
package frontier

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/obs"
)

// Options configures a frontier sweep.
type Options struct {
	// Device selects the GPU description whose DVFS ladder the sweep grids
	// over. Nil means the K20c.
	Device *kepler.Device
	// Spec bounds the DVFS grid. Zero value means the device's default grid.
	Spec kepler.GridSpec
	// Input overrides the program input (default Program.DefaultInput).
	Input string
}

func (o Options) withDefaults() Options {
	if o.Device == nil {
		o.Device = kepler.K20cDevice()
	}
	if o.Spec.CoreStepMHz == 0 && o.Spec.CoreMinMHz == 0 && o.Spec.CoreMaxMHz == 0 && len(o.Spec.MemMHz) == 0 {
		o.Spec = o.Device.DefaultGrid()
	}
	return o
}

// coarseStride is the in-row sampling stride of the clock-sensitive
// fallback and of the optimizer's coarse pass: every 8th core clock per row
// plus both row endpoints is simulated/evaluated.
const coarseStride = 8

// optimizerBudget caps the optimizer's evaluations as a fraction of the
// grid size: 0.29, strictly under a 30%-of-grid bound.
const optimizerBudget = 0.29

// Point is one grid configuration's outcome.
//
// The frontier math runs on the simulator's ground-truth surface (Time,
// Energy): adjacent grid steps differ by well under a percent, which the
// emulated 10 Hz power sensor cannot resolve — its sampling noise on
// seconds-long runs is ±1-10%, so a measured-median surface would make
// sweet spots sampling artifacts rather than properties of the program.
// The sensor medians are kept alongside (MeasTime, MeasEnergy) for
// reference, and the paper's exclusion rule still applies: a configuration
// the sensor cannot measure is excluded from the frontier entirely.
type Point struct {
	Config kepler.Clocks
	// Time, Energy, Power are the configuration's ground-truth active time
	// (s), active energy (J) and average active power (W). EDP =
	// Energy·Time, ED2P = Energy·Time².
	Time, Energy, Power float64
	EDP, ED2P           float64
	// MeasTime, MeasEnergy are the sensor-measured per-repetition medians
	// (zero on interpolated points: the fallback prices only the model
	// surface).
	MeasTime, MeasEnergy float64
	// Measurable is false when the sensor could not collect enough samples
	// at this configuration (the paper's exclusion rule); such points carry
	// no metrics and are skipped by the front, sweet spots and optimizer.
	Measurable bool
	// Interpolated marks points priced by the clock-sensitive fallback's
	// linear interpolation instead of a simulation.
	Interpolated bool
}

// Result is one program's frontier.
type Result struct {
	Program string
	Input   string
	// Sensitive reports that the program's launch trace is clock-sensitive:
	// replay would be unsound, so the sweep used the coarse-grid +
	// interpolation fallback.
	Sensitive bool

	// Points holds every grid configuration in row-major order (kepler.GridRows
	// layout: ECC-off rows by descending memory clock, cores ascending, then
	// ECC rows). Rows indexes Points row by row.
	Points []Point
	Rows   [][]int

	// Pareto lists the indices of the non-dominated (Time, Energy) points,
	// sorted by ascending Time (and so strictly descending Energy).
	Pareto []int
	// EDPIdx and ED2PIdx are the exhaustive-grid sweet spots (argmin over
	// all measurable points; ties break to the lower index). -1 when no
	// point is measurable.
	EDPIdx, ED2PIdx int
	// DefaultIdx locates the paper's default configuration in Points.
	DefaultIdx int

	// Opt is the budgeted optimizer's outcome on the same grid.
	Opt OptResult
}

// Simulated counts the points priced by simulation or replay (everything
// except interpolated and unmeasurable points).
func (r *Result) Simulated() int {
	n := 0
	for i := range r.Points {
		if r.Points[i].Measurable && !r.Points[i].Interpolated {
			n++
		}
	}
	return n
}

// Interpolated counts the flagged fallback points.
func (r *Result) Interpolated() int {
	n := 0
	for i := range r.Points {
		if r.Points[i].Interpolated {
			n++
		}
	}
	return n
}

// metrics bundles the sweep's obs instruments, registered in the runner's
// registry so gpuchard's /v1/metrics and the -obs dump surface them.
type metrics struct {
	replays      *obs.Counter
	interpolated *obs.Counter
	optEvals     *obs.Counter
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		replays:      reg.Counter("frontier_replays"),
		interpolated: reg.Counter("frontier_interpolated"),
		optEvals:     reg.Counter("frontier_optimizer_evals"),
	}
}

// Sweep measures one program across the dense DVFS grid and computes its
// frontier. The first measurement captures the program's launch trace (via
// the runner's trace cache); if the trace is clock-insensitive every further
// configuration is a replay, otherwise the coarse-grid + interpolation
// fallback bounds the simulation count. The result is deterministic: same
// runner configuration, same program, same options — same bytes.
func Sweep(ctx context.Context, r *core.Runner, p core.Program, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	grid, err := opts.Device.Grid(opts.Spec)
	if err != nil {
		return nil, err
	}
	input := opts.Input
	if input == "" {
		input = p.DefaultInput()
	}
	m := newMetrics(r.Metrics())
	def := opts.Device.DefaultConfig()

	// First measurement: the device's default configuration. This both
	// anchors DefaultIdx and forces the trace capture that decides the
	// sweep strategy.
	if _, err := r.Measure(ctx, p, input, def); err != nil && !core.IsInsufficient(err) {
		return nil, err
	}
	sensitive, known := r.TraceClockSensitive(p, input, def)
	if !known {
		// No completed capture: the default measurement was served from a
		// warm cache, errored, or the runner runs NoReplay. Measuring the
		// first configuration the cache cannot serve captures the trace.
		// A fully cached grid costs nothing to sweep densely; a runner
		// that still holds no trace (NoReplay) is assumed sensitive, so
		// its simulation count stays bounded.
		if clk, ok := firstUncached(r, p, input, grid); ok {
			if _, err := r.Measure(ctx, p, input, clk); err != nil && !core.IsInsufficient(err) {
				return nil, err
			}
			if sensitive, known = r.TraceClockSensitive(p, input, def); !known {
				sensitive = true
			}
		}
	}

	res := &Result{
		Program:   p.Name(),
		Input:     input,
		Sensitive: sensitive,
		EDPIdx:    -1,
		ED2PIdx:   -1,
	}

	// Lay the grid out in frontier rows and index it.
	rows := kepler.GridRows(grid)
	for _, row := range rows {
		idxRow := make([]int, 0, len(row))
		for _, clk := range row {
			idxRow = append(idxRow, len(res.Points))
			res.Points = append(res.Points, Point{Config: clk})
		}
		res.Rows = append(res.Rows, idxRow)
	}
	res.DefaultIdx = res.findConfig(def.Name)

	if sensitive {
		err = res.sweepCoarse(ctx, r, p, input, opts, m)
	} else {
		err = res.sweepDense(ctx, r, p, input, m)
	}
	if err != nil {
		return nil, err
	}

	res.Pareto = paretoFront(res.Points)
	res.EDPIdx = argmin(res.Points, func(pt *Point) float64 { return pt.EDP })
	res.ED2PIdx = argmin(res.Points, func(pt *Point) float64 { return pt.ED2P })
	res.Opt = chase(res, opts)
	m.optEvals.Add(int64(res.Opt.Evals))
	return res, nil
}

// firstUncached returns the first grid configuration not yet resolved in
// the runner's measurement cache; ok is false when the whole grid is.
func firstUncached(r *core.Runner, p core.Program, input string, grid []kepler.Clocks) (clk kepler.Clocks, ok bool) {
	for _, clk := range grid {
		if !r.Cached(p, input, clk) {
			return clk, true
		}
	}
	return kepler.Clocks{}, false
}

// findConfig locates a configuration by name in Points (-1 if absent).
func (r *Result) findConfig(name string) int {
	for i := range r.Points {
		if r.Points[i].Config.Name == name {
			return i
		}
	}
	return -1
}

// fill prices one point from a measurement result: ground truth drives the
// frontier surface, the sensor medians ride along for reference.
func (pt *Point) fill(res *core.Result) {
	pt.Time = res.TrueActiveTime
	pt.Energy = res.TrueEnergy
	if pt.Time > 0 {
		pt.Power = pt.Energy / pt.Time
	}
	pt.MeasTime = res.ActiveTime
	pt.MeasEnergy = res.Energy
	pt.derive()
	pt.Measurable = true
}

// derive computes the efficiency products from Time and Energy.
func (pt *Point) derive() {
	pt.EDP = pt.Energy * pt.Time
	pt.ED2P = pt.Energy * pt.Time * pt.Time
}

// sweepDense measures every grid point. For a clock-insensitive program the
// trace cache serves every configuration after the capture by replay, so
// the whole grid costs one simulation. Runner.MeasureEach measures the
// points in parallel, within the runner's worker budget, and returns them
// in grid order, so the points, the error returned and the replay count do
// not depend on the worker count or the completion order.
func (r *Result) sweepDense(ctx context.Context, run *core.Runner, p core.Program, input string, m metrics) error {
	combos := make([]core.Combo, len(r.Points))
	for i := range r.Points {
		combos[i] = core.Combo{Program: p, Input: input, Clocks: r.Points[i].Config}
	}
	results, err := run.MeasureEach(ctx, combos)
	if err != nil {
		return err
	}
	// A nil result is excluded at this configuration, like the paper's
	// dashes.
	for i, res := range results {
		if res != nil {
			r.Points[i].fill(res)
			if i != r.DefaultIdx {
				m.replays.Inc()
			}
		}
	}
	return nil
}

// sweepCoarse is the clock-sensitive fallback: simulate only every
// coarseStride-th core clock per row (plus both row endpoints and any
// canonical configuration), then interpolate the points in between linearly
// in core frequency. Interpolated points are flagged; memory-clock rows
// never interpolate across each other.
func (r *Result) sweepCoarse(ctx context.Context, run *core.Runner, p core.Program, input string, opts Options, m metrics) error {
	for _, row := range r.Rows {
		anchors := coarseAnchors(r, row, coarseStride, opts.Device)
		for _, i := range anchors {
			pt := &r.Points[i]
			res, err := run.Measure(ctx, p, input, pt.Config)
			switch {
			case err == nil:
				pt.fill(res)
			case core.IsInsufficient(err):
			default:
				return err
			}
		}
		r.interpolateRow(row, m)
	}
	return nil
}

// isCanonical reports whether name is one of the device's four evaluated
// configurations (the paper's set, per device).
func isCanonical(dev *kepler.Device, name string) bool {
	for _, c := range dev.Configurations() {
		if c.Name == name {
			return true
		}
	}
	return false
}

// coarseAnchors picks the row indices the fallback simulates: every
// stride-th entry, the row's last entry, and every canonical configuration
// in the row (the paper's four are always real measurements, never
// interpolations).
func coarseAnchors(r *Result, row []int, stride int, dev *kepler.Device) []int {
	var anchors []int
	for j, idx := range row {
		if j%stride == 0 || j == len(row)-1 || isCanonical(dev, r.Points[idx].Config.Name) {
			anchors = append(anchors, idx)
		}
	}
	return anchors
}

// interpolateRow prices every unmeasured point of a row from its nearest
// measured neighbors, linearly in core frequency. Points with no measurable
// anchor on both sides stay unmeasurable.
func (r *Result) interpolateRow(row []int, m metrics) {
	for j, idx := range row {
		pt := &r.Points[idx]
		if pt.Measurable {
			continue
		}
		lo, hi := -1, -1
		for k := j - 1; k >= 0; k-- {
			if r.Points[row[k]].Measurable && !r.Points[row[k]].Interpolated {
				lo = row[k]
				break
			}
		}
		for k := j + 1; k < len(row); k++ {
			if r.Points[row[k]].Measurable && !r.Points[row[k]].Interpolated {
				hi = row[k]
				break
			}
		}
		if lo < 0 || hi < 0 {
			continue
		}
		a, b := &r.Points[lo], &r.Points[hi]
		frac := float64(pt.Config.CoreMHz-a.Config.CoreMHz) / float64(b.Config.CoreMHz-a.Config.CoreMHz)
		pt.Time = a.Time + (b.Time-a.Time)*frac
		pt.Energy = a.Energy + (b.Energy-a.Energy)*frac
		if pt.Time > 0 {
			pt.Power = pt.Energy / pt.Time
		}
		pt.derive()
		pt.Measurable = true
		pt.Interpolated = true
		m.interpolated.Inc()
	}
}

// SweepAll runs Sweep over the programs in order, returning one Result per
// program. It fails fast on the first hard error.
func SweepAll(ctx context.Context, r *core.Runner, programs []core.Program, opts Options) ([]*Result, error) {
	results := make([]*Result, 0, len(programs))
	for _, p := range programs {
		res, err := Sweep(ctx, r, p, opts)
		if err != nil {
			return nil, fmt.Errorf("frontier: %s: %w", p.Name(), err)
		}
		results = append(results, res)
	}
	return results, nil
}
