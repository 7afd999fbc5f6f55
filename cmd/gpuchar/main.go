// Command gpuchar reproduces the paper's experiments: it measures the 34
// benchmark programs on the simulated K20c through the full measurement
// stack and prints the requested tables and figures.
//
// Usage:
//
//	gpuchar -exp all
//	gpuchar -exp table1,table2,fig2,fig3,fig4,table3,table4,fig5,fig6
//	gpuchar -exp fig2 -reps 3
//	gpuchar -exp all -store traces/ -timeout 10m -metrics
//	gpuchar -exp frontier -reps 1    # dense DVFS grid: EDP/ED²P sweet spots, Pareto fronts
//	gpuchar -exp devices  # same programs on every GPU profile, side by side
//	gpuchar -exp attrib   # instruction-level energy attribution by op class x kernel
//	gpuchar -exp attrib -store traces/ -json    # replay-backed, machine-readable
//	gpuchar -exp all,frontier -reps 1    # the battery, then the frontier
//	gpuchar -device GTX1080 -exp table2,fig2    # the battery on another profile
//	gpuchar -selfcheck    # physics-invariant verification sweep (internal/check)
//	gpuchar -selfcheck -device JetsonTX2    # invariants on another profile
//
// The experiments run in the order -exp names them; 'all' expands in place
// to the paper's battery (every experiment except frontier, devices and
// attrib), and a name given twice runs once. An unknown name is refused
// with the list of valid ones (exit code 2) before anything is measured.
//
// -device selects the GPU profile (see internal/kepler/devices); the default
// is the paper's K20c. Every experiment then reads its operating points from
// that device's canonical ladder. 'devices' always compares the three
// representative profiles regardless of -device.
//
// Each experiment measures the combinations it reads in parallel, within
// the -workers budget; a combination another experiment already measured
// is served from the runner's cache.
//
// -store names a launch-trace directory (core.DirBroker): each trace is
// written there when it is captured, and later runs replay it with zero
// simulations. A regular file there is refused (exit code 2).
//
// The sweep is cancelable: SIGINT (and -timeout) cancel the measurement
// context, and in-flight simulations abort at the next thread-block
// boundary; every trace captured before that is already in -store.
// -metrics dumps the observability registry (per-stage durations, cache
// hit/miss counts, worker-pool utilization, sweep progress) as JSON to
// stderr at exit; stdout carries only the experiment output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/kepler"
	"repro/internal/report"
	"repro/internal/suites"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", expUsage())
		device    = flag.String("device", "", "GPU profile the experiments run on (empty = the paper's K20c); see internal/kepler/devices for the known profiles")
		progFlag  = flag.String("programs", "", "comma-separated program names to restrict the sweep to (empty = all 34)")
		reps      = flag.Int("reps", 3, "measurement repetitions per configuration (the paper uses 3)")
		store     = flag.String("store", "", "launch-trace directory: each captured trace is written here and replayed on later runs, so a warm directory costs zero simulations (never affects measured values)")
		selfcheck = flag.Bool("selfcheck", false, "run the physics-invariant verification sweep instead of the experiments; exit 1 on any violation")
		workers   = flag.Int("workers", 0, "simulation worker budget shared by concurrent measurements and per-launch block sharding (0 = GOMAXPROCS); never affects measured values")
		timeout   = flag.Duration("timeout", 0, "overall deadline for the run (e.g. 10m); 0 disables")
		metrics   = flag.Bool("metrics", false, "dump pipeline metrics (stage timings, cache counters, pool utilization) as JSON to stderr at exit")
		jsonOut   = flag.Bool("json", false, "emit the attrib experiment as JSON instead of text (other experiments are unaffected)")
	)
	flag.Parse()

	runner := core.NewRunner()
	runner.Repetitions = *reps
	runner.Workers = *workers
	dev, err := kepler.DeviceByName(*device)
	if err == nil {
		_, err = selectExperiments(*expFlag)
	}
	if err == nil && *store != "" {
		runner.Broker, err = core.NewDirBroker(*store)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpuchar:", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the sweep gracefully: queued jobs stop before
	// starting, running simulations abort at the next block boundary, and
	// the metrics dump below still happens.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	err = run(ctx, runner, os.Stdout, *expFlag, *progFlag, *selfcheck, *jsonOut, dev)
	if *metrics {
		if merr := runner.Metrics().WriteJSON(os.Stderr); merr != nil {
			fmt.Fprintln(os.Stderr, "gpuchar: writing metrics:", merr)
		}
	}

	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "gpuchar: interrupted")
		os.Exit(130)
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(os.Stderr, "gpuchar: timed out")
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "gpuchar:", err)
		os.Exit(1)
	}
}

// errViolations marks a completed selfcheck that found invariant
// violations (reported on stdout already).
var errViolations = errors.New("selfcheck found invariant violations")

// run executes the requested experiments (or the selfcheck sweep) on the
// given device profile and returns instead of exiting, so main can always
// dump metrics afterwards.
func run(ctx context.Context, runner *core.Runner, out io.Writer, expFlag, progFlag string, selfcheck, jsonOut bool, dev *kepler.Device) error {
	selected, err := selectExperiments(expFlag)
	if err != nil {
		return err
	}
	programs := suites.All()
	if progFlag != "" {
		programs = programs[:0]
		for _, name := range strings.Split(progFlag, ",") {
			p, err := suites.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			programs = append(programs, p)
		}
	}

	if selfcheck {
		rep, err := check.Run(ctx, runner, programs, dev)
		if err != nil {
			return err
		}
		rep.Format(out)
		if !rep.Ok() {
			return errViolations
		}
		return nil
	}

	e := &env{ctx: ctx, runner: runner, out: out, programs: programs, dev: dev, cfgs: dev.Configurations(), jsonOut: jsonOut}
	for _, x := range selected {
		if err := x.run(e); err != nil {
			return err
		}
	}
	return nil
}

// env is what an experiment reads: the measurement context and runner, the
// output, and the selected programs and device.
type env struct {
	ctx      context.Context
	runner   *core.Runner
	out      io.Writer
	programs []core.Program
	dev      *kepler.Device
	cfgs     []kepler.Clocks // dev's canonical ladder (default, 614, 324, ECC on the K20c)
	jsonOut  bool
}

// experiment is one -exp name: inAll marks the paper's battery, the
// experiments 'all' runs.
type experiment struct {
	name  string
	inAll bool
	run   func(*env) error
}

// experiments lists every experiment in the order 'all' prints them.
// frontier, devices and attrib stay out of 'all', which keeps the
// battery's stdout pinned to the paper's tables and figures on the
// selected device: the frontier sweeps ~25x the paper's configurations,
// devices measures every program on three profiles, and attrib is a
// replay-backed pass over the launch traces.
var experiments = []experiment{
	{"table1", true, func(e *env) error {
		report.Table1(e.out, core.Table1(e.programs))
		fmt.Fprintln(e.out)
		return nil
	}},
	{"table2", true, func(e *env) error {
		rows, err := core.Table2(e.ctx, e.runner, e.programs, e.dev)
		if err != nil {
			return err
		}
		report.Table2(e.out, rows)
		fmt.Fprintln(e.out)
		return nil
	}},
	{"fig1", true, func(e *env) error {
		p, err := suites.ByName("LBM")
		if err != nil {
			return err
		}
		_, samples, m, err := core.Profile(e.ctx, p, "3000", e.cfgs[0], 7)
		if err != nil {
			return fmt.Errorf("fig1 profile: %w", err)
		}
		report.Figure1(e.out, samples, m)
		fmt.Fprintln(e.out)
		return nil
	}},
	{"fig2", true, figureRatios("Figure 2", "614 configuration relative to default", 0, 1)},
	{"fig3", true, figureRatios("Figure 3", "324 configuration relative to 614", 1, 2)},
	{"fig4", true, figureRatios("Figure 4", "ECC relative to default", 0, 3)},
	{"table3", true, func(e *env) error {
		lbfs, err := suites.ByName("L-BFS")
		if err != nil {
			return err
		}
		rows, excluded, err := core.Table3(e.ctx, e.runner, lbfs, suites.LBFSVariants(), "usa", e.dev)
		if err != nil {
			return err
		}
		sssp, err := suites.ByName("SSSP")
		if err != nil {
			return err
		}
		rows2, excl2, err := core.Table3(e.ctx, e.runner, sssp, suites.SSSPVariants(), "usa", e.dev)
		if err != nil {
			return err
		}
		report.Table3(e.out, append(rows, rows2...), append(excluded, excl2...))
		fmt.Fprintln(e.out)
		return nil
	}},
	{"table4", true, func(e *env) error {
		rows, err := core.Table4(e.ctx, e.runner, suites.BFSCross(), e.dev)
		if err != nil {
			return err
		}
		report.Table4(e.out, rows)
		fmt.Fprintln(e.out)
		return nil
	}},
	{"fig5", true, func(e *env) error {
		rows, err := core.Figure5(e.ctx, e.runner, e.programs, e.dev)
		if err != nil {
			return err
		}
		report.Figure5(e.out, rows)
		fmt.Fprintln(e.out)
		return nil
	}},
	{"fig6", true, func(e *env) error {
		rows, err := core.Figure6(e.ctx, e.runner, e.programs, e.dev)
		if err != nil {
			return err
		}
		report.Figure6(e.out, rows)
		fmt.Fprintln(e.out)
		return nil
	}},
	{"classify", true, func(e *env) error {
		classes, err := core.Classify(e.ctx, e.runner, e.programs, e.dev)
		if err != nil {
			return err
		}
		report.Classification(e.out, classes, core.RecommendSubset(classes))
		fmt.Fprintln(e.out)
		return nil
	}},
	{"findings", true, func(e *env) error {
		findings, err := core.VerifyFindings(e.ctx, e.runner, e.programs, suites.LBFSVariants(), suites.SSSPVariants(), e.dev)
		if err != nil {
			return err
		}
		report.Findings(e.out, findings)
		fmt.Fprintln(e.out)
		return nil
	}},
	{"freqsweep", true, func(e *env) error {
		picks, err := sweepPicks()
		if err != nil {
			return err
		}
		for _, p := range picks {
			points, err := core.FreqSweep(e.ctx, e.runner, p, e.dev)
			if err != nil {
				return err
			}
			report.FreqSweep(e.out, p.Name(), e.cfgs[0], points)
		}
		fmt.Fprintln(e.out)
		return nil
	}},
	{"frontier", false, func(e *env) error {
		results, err := frontier.SweepAll(e.ctx, e.runner, e.programs, frontier.Options{Device: e.dev})
		if err != nil {
			return err
		}
		for _, res := range results {
			report.Frontier(e.out, res)
		}
		fmt.Fprintln(e.out)
		return nil
	}},
	{"devices", false, func(e *env) error {
		rows, err := core.DeviceCompare(e.ctx, e.runner, e.programs, kepler.Profiles())
		if err != nil {
			return err
		}
		report.DeviceCompare(e.out, rows)
		fmt.Fprintln(e.out)
		return nil
	}},
	{"attrib", false, func(e *env) error {
		rows, err := core.AttributionSweep(e.ctx, e.runner, e.programs, e.cfgs)
		if err != nil {
			return err
		}
		if e.jsonOut {
			return report.AttributionJSON(e.out, rows)
		}
		report.Attribution(e.out, rows)
		return nil
	}},
	{"crossgpu", true, func(e *env) error {
		picks, err := sweepPicks()
		if err != nil {
			return err
		}
		rows, err := core.CrossGPU(e.ctx, e.runner, picks)
		if err != nil {
			return err
		}
		report.CrossGPU(e.out, rows)
		fmt.Fprintln(e.out)
		return nil
	}},
}

// figureRatios is the body of Figures 2-4: every program at config alt
// relative to config base of the device's ladder, as ratio table and box
// plots.
func figureRatios(figure, caption string, base, alt int) func(*env) error {
	return func(e *env) error {
		rows, err := core.FigureRatios(e.ctx, e.runner, e.programs, e.cfgs[base], e.cfgs[alt])
		if err != nil {
			return err
		}
		report.FigureRatios(e.out, figure+": "+caption, rows)
		report.BoxPlot(e.out, figure+" as box plots", rows)
		fmt.Fprintln(e.out)
		return nil
	}
}

// sweepPicks returns the three programs freqsweep and crossgpu follow
// across clock settings and boards: compute-bound NB, memory-bound STEN
// and irregular MST.
func sweepPicks() ([]core.Program, error) {
	var picks []core.Program
	for _, name := range []string{"NB", "STEN", "MST"} {
		p, err := suites.ByName(name)
		if err != nil {
			return nil, err
		}
		picks = append(picks, p)
	}
	return picks, nil
}

// selectExperiments resolves an -exp value to the experiments it names, in
// the order named: 'all' expands in place to the battery, a repeated name
// runs once, and an unknown name is an error listing the valid ones.
func selectExperiments(expFlag string) ([]experiment, error) {
	var selected []experiment
	seen := map[string]bool{}
	for _, name := range strings.Split(expFlag, ",") {
		name = strings.TrimSpace(name)
		matched := false
		for _, x := range experiments {
			if x.name != name && !(name == "all" && x.inAll) {
				continue
			}
			matched = true
			if !seen[x.name] {
				seen[x.name] = true
				selected = append(selected, x)
			}
		}
		if !matched {
			return nil, fmt.Errorf("unknown experiment %q; valid: %s or all", name, strings.Join(experimentNames(false), ","))
		}
	}
	return selected, nil
}

// experimentNames lists the experiments in table order: those 'all' runs,
// or every one.
func experimentNames(battery bool) []string {
	var names []string
	for _, x := range experiments {
		if x.inAll || !battery {
			names = append(names, x.name)
		}
	}
	return names
}

// expUsage is the -exp flag's help text.
func expUsage() string {
	return "comma-separated experiments, run in the order named: " + strings.Join(experimentNames(false), ",") +
		"; 'all' expands in place to " + strings.Join(experimentNames(true), ",")
}
