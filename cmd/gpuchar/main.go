// Command gpuchar reproduces the paper's experiments: it measures the 34
// benchmark programs on the simulated K20c through the full measurement
// stack and prints the requested tables and figures.
//
// Usage:
//
//	gpuchar -exp all
//	gpuchar -exp table1,table2,fig2,fig3,fig4,table3,table4,fig5,fig6
//	gpuchar -exp fig2 -reps 3
//	gpuchar -exp all -store sweep.json -timeout 10m -metrics
//	gpuchar -exp frontier -reps 1    # dense DVFS grid: EDP/ED²P sweet spots, Pareto fronts
//	gpuchar -exp devices  # same programs on every GPU profile, side by side
//	gpuchar -exp attrib   # instruction-level energy attribution by op class x kernel
//	gpuchar -exp attrib -traces traces/ -json    # replay-backed, machine-readable
//	gpuchar -device GTX1080 -exp table2,fig2    # the battery on another profile
//	gpuchar -selfcheck    # physics-invariant verification sweep (internal/check)
//	gpuchar -selfcheck -device JetsonTX2    # invariants on another profile
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
// The sweep is cancelable: SIGINT (and -timeout) cancel the measurement
// context, in-flight simulations abort at the next thread-block boundary,
// and everything measured so far is still saved to -store before exit.
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
		expFlag   = flag.String("exp", "all", "comma-separated experiments: table1,table2,table3,table4,fig1,fig2,fig3,fig4,fig5,fig6,crossgpu,classify,freqsweep,findings or 'all'; 'frontier' (dense DVFS grid), 'devices' (cross-profile comparison) and 'attrib' (instruction-level energy attribution) run only when requested explicitly")
		device    = flag.String("device", "", "GPU profile the experiments run on (empty = the paper's K20c); see internal/kepler/devices for the known profiles")
		progFlag  = flag.String("programs", "", "comma-separated program names to restrict the sweep to (empty = all 34)")
		reps      = flag.Int("reps", 3, "measurement repetitions per configuration (the paper uses 3)")
		store     = flag.String("store", "", "measurement cache file: loaded if present, saved on exit (also on failure, timeout and SIGINT)")
		selfcheck = flag.Bool("selfcheck", false, "run the physics-invariant verification sweep instead of the experiments; exit 1 on any violation")
		workers   = flag.Int("workers", 0, "simulation worker budget shared by concurrent measurements and per-launch block sharding (0 = GOMAXPROCS); never affects measured values")
		timeout   = flag.Duration("timeout", 0, "overall deadline for the run (e.g. 10m); 0 disables")
		metrics   = flag.Bool("metrics", false, "dump pipeline metrics (stage timings, cache counters, pool utilization) as JSON to stderr at exit")
		traces    = flag.String("traces", "", "launch-trace directory: captured traces are stored here and replayed on later runs, so a warm directory costs zero simulations (never affects measured values)")
		jsonOut   = flag.Bool("json", false, "emit the attrib experiment as JSON instead of text (other experiments are unaffected)")
	)
	flag.Parse()

	dev, err := kepler.DeviceByName(*device)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpuchar:", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the sweep gracefully: queued jobs stop before
	// starting, running simulations abort at the next block boundary, and
	// the partial store and metrics dump below still happen.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	runner := core.NewRunner()
	runner.Repetitions = *reps
	runner.Workers = *workers
	if *traces != "" {
		runner.Broker = core.NewDirBroker(*traces)
	}

	if *store != "" {
		if err := runner.LoadStore(*store); err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "gpuchar: ignoring store %s: %v\n", *store, err)
		}
	}

	err = run(ctx, runner, os.Stdout, *expFlag, *progFlag, *selfcheck, *jsonOut, dev)

	// Save on every path — success, failure, timeout, interrupt — so no
	// already-computed measurement is ever lost to an aborted sweep.
	if *store != "" {
		if serr := runner.SaveStore(*store); serr != nil {
			fmt.Fprintln(os.Stderr, "gpuchar: saving store:", serr)
			if err == nil {
				err = serr
			}
		}
	}
	if *metrics {
		if merr := runner.Metrics().WriteJSON(os.Stderr); merr != nil {
			fmt.Fprintln(os.Stderr, "gpuchar: writing metrics:", merr)
		}
	}

	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "gpuchar: interrupted; partial results saved")
		os.Exit(130)
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(os.Stderr, "gpuchar: timed out; partial results saved")
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
// save the store and dump metrics afterwards.
func run(ctx context.Context, runner *core.Runner, out io.Writer, expFlag, progFlag string, selfcheck, jsonOut bool, dev *kepler.Device) error {
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

	cfgs := dev.Configurations()

	want := map[string]bool{}
	if expFlag == "all" {
		for _, e := range []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "table3", "table4", "fig5", "fig6", "classify", "findings", "freqsweep", "crossgpu"} {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(expFlag, ",") {
			want[strings.TrimSpace(e)] = true
		}
	}

	if want["table1"] {
		report.Table1(out, core.Table1(programs))
		fmt.Fprintln(out)
	}
	if want["table2"] {
		rows, err := core.Table2(ctx, runner, programs, dev)
		if err != nil {
			return err
		}
		report.Table2(out, rows)
		fmt.Fprintln(out)
	}
	if want["fig1"] {
		p, err := suites.ByName("LBM")
		if err != nil {
			return err
		}
		samples, m, err := core.Profile(ctx, p, "3000", cfgs[0], 7)
		if err != nil {
			return fmt.Errorf("fig1 profile: %w", err)
		}
		report.Figure1(out, samples, m)
		fmt.Fprintln(out)
	}
	if want["fig2"] {
		rows, err := core.FigureRatios(ctx, runner, programs, cfgs[0], cfgs[1])
		if err != nil {
			return err
		}
		report.FigureRatios(out, "Figure 2: 614 configuration relative to default", rows)
		report.BoxPlot(out, "Figure 2 as box plots", rows)
		fmt.Fprintln(out)
	}
	if want["fig3"] {
		rows, err := core.FigureRatios(ctx, runner, programs, cfgs[1], cfgs[2])
		if err != nil {
			return err
		}
		report.FigureRatios(out, "Figure 3: 324 configuration relative to 614", rows)
		report.BoxPlot(out, "Figure 3 as box plots", rows)
		fmt.Fprintln(out)
	}
	if want["fig4"] {
		rows, err := core.FigureRatios(ctx, runner, programs, cfgs[0], cfgs[3])
		if err != nil {
			return err
		}
		report.FigureRatios(out, "Figure 4: ECC relative to default", rows)
		report.BoxPlot(out, "Figure 4 as box plots", rows)
		fmt.Fprintln(out)
	}
	if want["table3"] {
		lbfs, err := suites.ByName("L-BFS")
		if err != nil {
			return err
		}
		rows, excluded, err := core.Table3(ctx, runner, lbfs, suites.LBFSVariants(), "usa", dev)
		if err != nil {
			return err
		}
		sssp, err := suites.ByName("SSSP")
		if err != nil {
			return err
		}
		rows2, excl2, err := core.Table3(ctx, runner, sssp, suites.SSSPVariants(), "usa", dev)
		if err != nil {
			return err
		}
		report.Table3(out, append(rows, rows2...), append(excluded, excl2...))
		fmt.Fprintln(out)
	}
	if want["table4"] {
		rows, err := core.Table4(ctx, runner, suites.BFSCross(), dev)
		if err != nil {
			return err
		}
		report.Table4(out, rows)
		fmt.Fprintln(out)
	}
	if want["fig5"] {
		rows, err := core.Figure5(ctx, runner, programs, dev)
		if err != nil {
			return err
		}
		report.Figure5(out, rows)
		fmt.Fprintln(out)
	}
	if want["fig6"] {
		rows, err := core.Figure6(ctx, runner, programs, dev)
		if err != nil {
			return err
		}
		report.Figure6(out, rows)
		fmt.Fprintln(out)
	}
	if want["classify"] {
		classes, err := core.Classify(ctx, runner, programs, dev)
		if err != nil {
			return err
		}
		report.Classification(out, classes, core.RecommendSubset(classes))
		fmt.Fprintln(out)
	}
	if want["findings"] {
		findings, err := core.VerifyFindings(ctx, runner, programs, suites.LBFSVariants(), suites.SSSPVariants(), dev)
		if err != nil {
			return err
		}
		report.Findings(out, findings)
		fmt.Fprintln(out)
	}
	if want["freqsweep"] {
		for _, name := range []string{"NB", "STEN", "MST"} {
			p, err := suites.ByName(name)
			if err != nil {
				return err
			}
			points, err := core.FreqSweep(ctx, runner, p, dev)
			if err != nil {
				return err
			}
			report.FreqSweep(out, p.Name(), cfgs[0], points)
		}
		fmt.Fprintln(out)
	}
	// The dense-grid frontier is deliberately NOT part of 'all': it sweeps
	// ~25x the paper's configuration count, and keeping it out preserves the
	// byte-identical stdout of the existing experiment set.
	if want["frontier"] {
		results, err := frontier.SweepAll(ctx, runner, programs, frontier.Options{Device: dev})
		if err != nil {
			return err
		}
		for _, res := range results {
			report.Frontier(out, res)
		}
		fmt.Fprintln(out)
	}
	// The cross-device comparison is likewise NOT part of 'all': it measures
	// every program on all three representative profiles (K20c, Pascal-class,
	// Jetson-class), and the 'all' battery is pinned to the selected device's
	// output alone.
	if want["devices"] {
		rows, err := core.DeviceCompare(ctx, runner, programs, kepler.Profiles())
		if err != nil {
			return err
		}
		report.DeviceCompare(out, rows)
		fmt.Fprintln(out)
	}
	// Attribution is likewise NOT part of 'all': it is a replay-backed
	// post-processing pass over the launch traces, additive to the pinned
	// experiment battery.
	if want["attrib"] {
		rows, err := core.AttributionSweep(ctx, runner, programs, cfgs)
		if err != nil {
			return err
		}
		if jsonOut {
			if err := report.AttributionJSON(out, rows); err != nil {
				return err
			}
		} else {
			report.Attribution(out, rows)
		}
	}
	if want["crossgpu"] {
		var picks []core.Program
		for _, name := range []string{"NB", "STEN", "MST"} {
			p, err := suites.ByName(name)
			if err != nil {
				return err
			}
			picks = append(picks, p)
		}
		rows, err := core.CrossGPU(ctx, runner, picks)
		if err != nil {
			return err
		}
		report.CrossGPU(out, rows)
		fmt.Fprintln(out)
	}
	return nil
}
