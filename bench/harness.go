package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/suites"
)

// options configures one benchmark run.
type options struct {
	root     string        // repository root
	seed     uint64        // permutes the order programs are submitted in
	seconds  time.Duration // measuring time of the run
	traced   bool          // per-layer run: an untraced half, then a traced half
	traceDir string        // where the traced run writes cpu.pprof and trace.json
	portBase int           // the fleet's first loopback port

	// Tests shrink a workload with these: programs replaces the workload's
	// program list and rounds fixes the round count of each phase.
	programs []string
	rounds   int
}

// workload is one named benchmark workload. Set-up is timed setupReps times
// before the first round and setupsPerRound more times before every round,
// and setup_s is the median, so one slow set-up does not move it. A set-up
// of well under a millisecond is timed before every round: timed only at the
// start, it would catch the host in whatever state it is in for those few
// milliseconds, and the calibrations it is scaled by are the rounds'.
type workload struct {
	name           string
	setupReps      int
	setupsPerRound int
	setup          func(ctx context.Context, o *options) (state, error)
}

// state is a set-up workload that runs rounds.
type state interface {
	// round runs one round. It brackets the timed part with rd.start and
	// rd.stop, then checks the outputs and records per-layer metrics when
	// the round is traced.
	round(ctx context.Context, rd *round) error
}

var workloads = []workload{
	{name: "cold_sweep", setupReps: 1, setupsPerRound: 5, setup: setupCold},
	{name: "frontier_grid", setupReps: 3, setup: setupFrontier},
	{name: "attrib_grid", setupReps: 3, setup: setupAttrib},
	{name: "fleet_sweep", setupReps: 3, setup: setupFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// round is one round's measurements and outcome.
type round struct {
	index  int
	traced bool
	first  bool     // first traced round: one-off layer measurements go here
	spans  *spanLog // nil when untraced
	span   *span    // the round's span, parent of its call spans

	setups    []time.Duration // the workload's setupsPerRound set-ups before the round
	cal       calibration     // the calibration loop just before the round
	t0        time.Time
	cpu0      time.Duration
	wall, cpu time.Duration
	rssMiB    float64 // resident-set high-water mark during the round

	attempted, failed, wrong int
	layers                   map[string]float64
}

// start opens the timed part of the round.
func (rd *round) start() {
	rd.span = rd.spans.begin("round", "round", rd.index, "")
	rd.cpu0 = cpuTime()
	rd.t0 = time.Now()
}

// stop closes the timed part of the round.
func (rd *round) stop() {
	rd.wall = time.Since(rd.t0)
	rd.cpu = cpuTime() - rd.cpu0
	rd.span.end()
}

// call opens a span for one call into a layer, under the round's span.
func (rd *round) call(name, cat string) *span {
	return rd.spans.begin(name, cat, rd.index, rd.span.id())
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedSetup sets the workload up once, after a collection so the previous
// garbage stays out of its time.
func timedSetup(ctx context.Context, w workload, o *options) (state, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := w.setup(ctx, o)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	return st, time.Since(t0), nil
}

// runRounds runs rounds until the next one would overrun budget (or, in
// tests, for o.rounds rounds). Before each round the workload's per-round
// set-ups are timed, the heap is collected and returned to the system, so
// earlier garbage stays out of the round's time and memory peak, and the
// calibration loop is timed.
func runRounds(ctx context.Context, w workload, st state, o *options, spans *spanLog, budget time.Duration, firstIndex int) ([]*round, error) {
	var rounds []*round
	start := time.Now()
	for {
		rd := &round{
			index:  firstIndex + len(rounds),
			traced: spans != nil,
			first:  spans != nil && len(rounds) == 0,
			spans:  spans,
			layers: make(map[string]float64),
		}
		for i := 0; i < w.setupsPerRound; i++ {
			_, d, err := timedSetup(ctx, w, o)
			if err != nil {
				return nil, err
			}
			rd.setups = append(rd.setups, d)
		}
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		rd.cal = calibrate()
		if err := st.round(ctx, rd); err != nil {
			return nil, fmt.Errorf("round %d: %w", rd.index, err)
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		rd.rssMiB = rss
		rounds = append(rounds, rd)
		n := len(rounds)
		if o.rounds > 0 {
			if n >= o.rounds {
				return rounds, nil
			}
			continue
		}
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(n) > budget {
			return rounds, nil
		}
	}
}

// outcome is a finished run: the metric values by name, the raw medians
// behind the normalized times, and the item counts.
type outcome struct {
	rounds                   int
	values                   map[string]float64
	raw                      map[string]float64
	attempted, failed, wrong int
}

// runWorkload sets the workload up, runs it and measures it, within
// o.seconds from its start: set-ups and the warm-up round included, so a run
// lasts about as long whatever its workload. An untraced run yields the
// end-to-end metrics; a traced run yields the per-layer ones.
func runWorkload(ctx context.Context, w workload, o *options) (*outcome, error) {
	start := time.Now()
	if o.traced {
		// setup_s is an end-to-end metric: a traced run spends the time on rounds.
		w.setupReps, w.setupsPerRound = 1, 0
	}
	var st state
	var setups []time.Duration
	for i := 0; i < w.setupReps; i++ {
		s, d, err := timedSetup(ctx, w, o)
		if err != nil {
			return nil, err
		}
		st, setups = s, append(setups, d)
	}

	// One warm-up round, checked but not timed: the first round in a process
	// runs markedly slower (heap growth, pools filling) and would bias the
	// run's median, and in a traced run the untraced half against the traced.
	all, err := runRounds(ctx, w, st, o, nil, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}

	out := &outcome{values: make(map[string]float64), raw: make(map[string]float64)}
	var rounds []*round
	budget := o.seconds - time.Since(start)
	if o.traced {
		rounds, err = tracedRun(ctx, w, st, o, budget, len(all), out.values)
	} else {
		rounds, err = runRounds(ctx, w, st, o, nil, budget, len(all))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	all = append(all, rounds...)
	out.rounds = len(all)
	for _, rd := range all {
		setups = append(setups, rd.setups...)
		out.attempted += rd.attempted
		out.failed += rd.failed
		out.wrong += rd.wrong
	}
	if !o.traced {
		out.endToEnd(setups, rounds)
	}
	return out, nil
}

// endToEnd derives the end-to-end metrics from the set-up times and the
// timed rounds.
func (out *outcome) endToEnd(setups []time.Duration, rounds []*round) {
	walls, cpus := column(rounds, roundWall), column(rounds, roundCPU)
	calWalls, calCPUs := column(rounds, calWall), column(rounds, calCPU)
	// Set-ups are scaled by the rounds' calibrations, taken within seconds of
	// them: a calibration of its own before each set-up would evict the
	// caches a repeated set-up legitimately reuses.
	out.values["setup_s"] = normalized(setups, calWalls)
	out.values["wall_s"] = normalized(walls, calWalls)
	out.values["cpu_s"] = normalized(cpus, calCPUs)
	out.values["max_rss_mb"] = median(column(rounds, func(rd *round) float64 { return rd.rssMiB }))
	out.raw["setup_s"] = median(seconds(setups))
	out.raw["wall_s"] = median(seconds(walls))
	out.raw["cpu_s"] = median(seconds(cpus))
	out.raw["calibration_s"] = median(seconds(calWalls))
}

// tracedRun measures half the budget untraced and half traced, under a CPU
// profile and the span log, and derives the per-layer metrics.
func tracedRun(ctx context.Context, w workload, st state, o *options, budget time.Duration, firstIndex int, values map[string]float64) ([]*round, error) {
	plain, err := runRounds(ctx, w, st, o, nil, budget/2, firstIndex)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.traceDir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	spans := newSpanLog()
	traced, err := runRounds(ctx, w, st, o, spans, budget/2, firstIndex+len(plain))
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	prof, err := profileBuckets(profPath)
	if err != nil {
		return nil, err
	}

	keys := make(map[string]bool)
	for _, rd := range traced {
		for k := range rd.layers {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, rd := range traced {
			if v, ok := rd.layers[k]; ok {
				xs = append(xs, v)
			}
		}
		values[k] = median(xs)
	}
	prof.addShares(values, len(traced))
	values["sim.parallelism"] = median(column(traced, func(rd *round) float64 { return rd.cpu.Seconds() / rd.wall.Seconds() }))
	values["trace_overhead"] = normalized(column(traced, roundWall), column(traced, calWall))/
		normalized(column(plain, roundWall), column(plain, calWall)) - 1
	if err := spans.write(filepath.Join(dir, "trace.json")); err != nil {
		return nil, err
	}
	return append(plain, traced...), nil
}

// column picks one value out of every element of xs.
func column[T, V any](xs []T, f func(T) V) []V {
	out := make([]V, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func roundWall(rd *round) time.Duration { return rd.wall }
func roundCPU(rd *round) time.Duration  { return rd.cpu }
func calWall(rd *round) time.Duration   { return rd.cal.wall }
func calCPU(rd *round) time.Duration    { return rd.cal.cpu }

// programs resolves a workload's program list (or the test override) and
// shuffles it by the seed. The seed changes only the order programs are
// submitted in; every program still runs on its default input.
func programs(o *options, names []string) ([]core.Program, error) {
	if o.programs != nil {
		names = o.programs
	}
	ps := make([]core.Program, len(names))
	for i, name := range names {
		p, err := suites.ByName(name)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	rng := rand.New(rand.NewPCG(o.seed, 0))
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps, nil
}
