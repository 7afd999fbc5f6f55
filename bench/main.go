// Command bench is the repository's benchmark: four workloads of the GPU
// characterizer, each timed end to end behind a correctness gate, and a
// traced mode that splits the time by layer. BENCHMARK.json at the
// repository root lists the workloads and the metrics; README.md explains
// them.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload NAME|all [-seed N] [-seconds S] [-trace 0|1]
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// A run prints one line per metric and, as its last line, a JSON object
// with the keys correct, attempted, failed and metrics. It exits 1 when an
// output is wrong or an item failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runResult is the JSON object a run prints last.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a -record file: a run's result with what -compare
// needs to group it, and the raw medians behind the normalized times.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    int                `json:"trace"`
	Wrong    int                `json:"wrong"`
	Result   runResult          `json:"result"`
	Raw      map[string]float64 `json:"raw,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all (each in its own process)")
	seed := fs.Uint64("seed", 1, "permutes the order programs are submitted in")
	secs := fs.Float64("seconds", 0, "how long a run measures, set-ups included (0: run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled, traced run")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes <workload>/cpu.pprof and <workload>/trace.json")
	portBase := fs.Int("port-base", 18431, "fleet_sweep's first loopback port (it binds three)")
	recordPath := fs.String("record", "", "append the run's result line, with its workload and seed, to this file")
	compare := fs.Bool("compare", false, "compare two -record files given as arguments: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		return runCompare(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *secs <= 0 {
		*secs = float64(sp.RunSeconds)
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	// The load is sized for two cores: the runner pools and the fleet's two
	// single-core workers never run more simulation threads than this.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	o := &options{
		root:     root,
		seed:     *seed,
		seconds:  time.Duration(*secs * float64(time.Second)),
		traced:   *trace == 1,
		traceDir: filepath.Join(root, *traceDir),
		portBase: *portBase,
	}
	if filepath.IsAbs(*traceDir) {
		o.traceDir = *traceDir
	}
	out, err := runWorkload(context.Background(), w, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := report(sp, w.name, o, out, stdout)
	if *recordPath != "" {
		rec := record{Workload: w.name, Seed: *seed, Trace: *trace, Wrong: out.wrong, Result: res, Raw: out.raw}
		if err := appendRecord(*recordPath, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d wrong results, %d failed of %d\n", w.name, out.wrong, out.failed, out.attempted)
		return 1
	}
	return 0
}

// report prints a run's metrics, one per line, then the result JSON.
func report(sp *spec, workload string, o *options, out *outcome, w io.Writer) runResult {
	metrics := sp.EndToEnd
	if o.traced {
		metrics = sp.PerLayer
	}
	res := runResult{
		Correct:   out.failed == 0 && out.wrong == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(metrics)),
	}
	fmt.Fprintf(w, "# %s seed=%d rounds=%d (the first an untimed warm-up) trace=%v\n", workload, o.seed, out.rounds, o.traced)
	for _, m := range metrics {
		v := out.values[m.Name] // a layer the workload does not exercise reads 0
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.Name, v, m.Unit)
	}
	failedFrac := 0.0
	if out.attempted > 0 {
		failedFrac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "%-34s %14.6g (%d of %d items)\n", "failed_frac", failedFrac, out.failed, out.attempted)
	fmt.Fprintf(w, "%-34s %14d\n", "wrong_results", out.wrong)
	if !o.traced {
		fmt.Fprintf(w, "# raw medians before calibration: setup %.4gs, wall %.4gs, cpu %.4gs; calibration loop %.4gs (calibRef %v)\n",
			out.raw["setup_s"], out.raw["wall_s"], out.raw["cpu_s"], out.raw["calibration_s"], calibRef)
	}
	data, err := json.Marshal(res)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", data)
	return res
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, each in a process of its own as a single-
// workload run is, so no workload inherits another's heap or caches.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		// A later -workload flag overrides the "all" in args.
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
