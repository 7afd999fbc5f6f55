// Package frontier sweeps programs across a dense DVFS grid and computes
// their energy-efficiency frontier: per-configuration (runtime, energy)
// points, the Pareto-optimal front, EDP and ED²P sweet spots, and a
// budgeted "chase the sweet spot" optimizer that finds the EDP optimum in a
// fraction of the grid evaluations.
//
// The paper stops at four clock configurations; the launch-trace replay
// engine (internal/sim) makes additional configurations nearly free, so the
// frontier sweeps ~100 instead: every point is the program's one capture
// replayed at that configuration, exact like the paper's four.
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
	// MeasTime, MeasEnergy are the sensor-measured per-repetition medians.
	MeasTime, MeasEnergy float64
	// Measurable is false when the sensor could not collect enough samples
	// at this configuration (the paper's exclusion rule); such points carry
	// no metrics and are skipped by the front, sweet spots and optimizer.
	Measurable bool
}

// Result is one program's frontier.
type Result struct {
	Program string
	Input   string
	// Sensitive is never set: a program whose launch trace cannot be
	// replayed fails the sweep. It remains only because the benchmark's
	// gate (bench/gate.go) still reads it.
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

// Interpolated always returns 0: every point is a replay. It remains only
// because the benchmark's gate (bench/gate.go) still calls it.
func (r *Result) Interpolated() int { return 0 }

// metrics bundles the sweep's obs instruments, registered in the runner's
// registry so gpuchard's /v1/metrics and the -obs dump surface them.
type metrics struct {
	replays  *obs.Counter
	optEvals *obs.Counter
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		replays:  reg.Counter("frontier_replays"),
		optEvals: reg.Counter("frontier_optimizer_evals"),
	}
}

// Sweep measures one program across the dense DVFS grid and computes its
// frontier. Runner.MeasureEach measures the grid in parallel, within the
// runner's worker budget: the first measurement captures the program's
// launch trace (via the runner's trace cache) and every point replays it.
// The points come back in grid order, so the result, the error returned and
// the counters do not depend on the worker count or the completion order:
// same runner configuration, same program, same options — same bytes.
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
	res := &Result{Program: p.Name(), Input: input}

	// Lay the grid out in frontier rows and index it.
	var combos []core.Combo
	for _, row := range kepler.GridRows(grid) {
		idxRow := make([]int, 0, len(row))
		for _, clk := range row {
			idxRow = append(idxRow, len(res.Points))
			res.Points = append(res.Points, Point{Config: clk})
			combos = append(combos, core.Combo{Program: p, Input: input, Clocks: clk})
		}
		res.Rows = append(res.Rows, idxRow)
	}
	res.DefaultIdx = res.findConfig(opts.Device.DefaultConfig().Name)

	results, err := r.MeasureEach(ctx, combos)
	if err != nil {
		return nil, err
	}
	// A nil result is excluded at this configuration, like the paper's
	// dashes.
	for i, mr := range results {
		if mr != nil {
			res.Points[i].fill(mr)
			m.replays.Inc()
		}
	}

	res.Pareto = paretoFront(res.Points)
	res.EDPIdx = argmin(res.Points, func(pt *Point) float64 { return pt.EDP })
	res.ED2PIdx = argmin(res.Points, func(pt *Point) float64 { return pt.ED2P })
	res.Opt = chase(res, opts)
	m.optEvals.Add(int64(res.Opt.Evals))
	return res, nil
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
	pt.EDP = pt.Energy * pt.Time
	pt.ED2P = pt.Energy * pt.Time * pt.Time
	pt.Measurable = true
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
