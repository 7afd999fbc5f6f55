package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/kepler"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// ins20 is the fixed list of 20 clock-insensitive programs the grid
// workloads run: each is captured once and replayed at every other
// configuration. Set-up fails if one of them comes back clock-sensitive, so
// a change to the sensitive set cannot silently redefine the workloads.
var ins20 = []string{
	"EIP", "EP", "NB", "SC", "BH", "CUTCP", "LBM", "MRIQ", "SAD", "SGEMM",
	"STEN", "GE", "MUM", "NN", "NW", "PF", "FFT", "MF", "MD", "S2D",
}

// cold22 is the cold sweep's program list: every studied program whose
// cold four-configuration sweep costs under 0.35 s on one core, plus MST so
// that a LonestarGPU code and its Kruskal oracle are in it. It holds 17
// clock-insensitive and 5 clock-sensitive programs, and about 3.6 s of
// single-core work. The twelve left out (GE, QTC, S-BFS, EP, MF, ST, TPACF,
// NSP, SSSP, PTA, L-BFS, DMR) cost about 51 s more, too long to repeat a
// round within a run.
var cold22 = []string{
	"NN", "CUTCP", "SAD", "SGEMM", "LBM", "P-BFS", "PF", "S2D", "BP", "SC",
	"STEN", "HISTO", "FFT", "NW", "EIP", "R-BFS", "NB", "MRIQ", "MUM", "MD",
	"BH", "MST",
}

// k20c is the device every workload runs on.
func k20c() *kepler.Device { return kepler.K20cDevice() }

// denseGrid is the K20c's 99-configuration DVFS grid; it starts with the
// four canonical configurations.
func denseGrid() ([]kepler.Clocks, error) {
	dev := k20c()
	return dev.Grid(dev.DefaultGrid())
}

// canonicalNames names the paper's four configurations.
func canonicalNames() []string {
	var names []string
	for _, c := range k20c().Configurations() {
		names = append(names, c.Name)
	}
	return names
}

// --- cold_sweep ---

type coldState struct {
	progs  []core.Program
	golden *golden
}

func setupCold(_ context.Context, o *options) (state, error) {
	progs, err := programs(o, cold22)
	if err != nil {
		return nil, err
	}
	g, err := loadGolden(o.root)
	if err != nil {
		return nil, err
	}
	return &coldState{progs: progs, golden: g}, nil
}

// round measures every (program, config) combination on a fresh runner:
// nothing cached, every program simulated from scratch.
func (s *coldState) round(ctx context.Context, rd *round) error {
	r := core.NewRunner()
	combos := core.EnumerateCombos(s.progs, k20c().Configurations(), false)
	rd.start()
	var err error
	if rd.traced {
		err = labelledMeasureList(ctx, r, combos, rd)
	} else {
		err = r.MeasureList(ctx, combos)
	}
	rd.stop()
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}

	// Other failures are cached per combination; count them from the cache.
	rd.attempted = len(combos)
	for _, c := range combos {
		if _, err := r.Measure(ctx, c.Program, c.Input, c.Clocks); err != nil && !core.IsInsufficient(err) {
			rd.failed++
		}
	}
	if rd.failed == 0 {
		snap, err := check.Snapshot(ctx, r, s.progs, k20c().Configurations())
		if err != nil {
			return err
		}
		rd.wrong = s.golden.snapshotMismatches(snap)
	}
	if rd.traced {
		addRunnerLayers(rd.layers, r.Metrics().Snapshot())
	}
	return nil
}

// labelledMeasureList is Runner.MeasureList's fan-out done by hand, so each
// measurement runs under pprof labels naming its program and config (the
// labels follow it into the sharded block workers) and gets its own span:
// one goroutine per combination, each holding one worker-pool slot.
func labelledMeasureList(ctx context.Context, r *core.Runner, combos []core.Combo, rd *round) error {
	pool := r.WorkerPool()
	errs := make([]error, len(combos))
	var wg sync.WaitGroup
	for i, c := range combos {
		wg.Add(1)
		go func(i int, c core.Combo) {
			defer wg.Done()
			labels := pprof.Labels("program", c.Program.Name(), "config", c.Clocks.Name)
			pprof.Do(ctx, labels, func(ctx context.Context) {
				if err := pool.Acquire(ctx); err != nil {
					errs[i] = err
					return
				}
				defer pool.Release(1)
				sp := rd.call("Measure "+c.Program.Name()+"@"+c.Clocks.Name, "core")
				_, err := r.Measure(ctx, c.Program, c.Input, c.Clocks)
				sp.end()
				if err != nil && !core.IsInsufficient(err) {
					errs[i] = err
				}
			})
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- frontier_grid and attrib_grid ---

// gridState is the set-up shared by the two grid workloads: the INS20
// launch traces, captured once into an in-memory broker. Each round builds
// a fresh runner on that broker, so every grid point is a replay and no
// round simulates.
type gridState struct {
	progs  []core.Program
	grid   []kepler.Clocks
	broker *memBroker
	golden *golden
	attrib bool // attrib_grid instead of frontier_grid
}

func setupFrontier(ctx context.Context, o *options) (state, error) {
	return setupGrid(ctx, o, false)
}

func setupAttrib(ctx context.Context, o *options) (state, error) {
	return setupGrid(ctx, o, true)
}

func setupGrid(ctx context.Context, o *options, attrib bool) (state, error) {
	progs, err := programs(o, ins20)
	if err != nil {
		return nil, err
	}
	grid, err := denseGrid()
	if err != nil {
		return nil, err
	}
	g, err := loadGolden(o.root)
	if err != nil {
		return nil, err
	}
	b := newMemBroker()
	r := core.NewRunner()
	r.Broker = b
	def := k20c().DefaultConfig()
	if err := r.MeasureAll(ctx, progs, []kepler.Clocks{def}, false); err != nil {
		return nil, err
	}
	for _, p := range progs {
		if err := requireInsensitive(p, b.FetchTrace(def.Device().Name, p.Name(), p.DefaultInput())); err != nil {
			return nil, err
		}
	}
	return &gridState{progs: progs, grid: grid, broker: b, golden: g, attrib: attrib}, nil
}

func (s *gridState) round(ctx context.Context, rd *round) error {
	r := core.NewRunner()
	r.Broker = s.broker
	var err error
	if s.attrib {
		err = s.attribRound(ctx, r, rd)
	} else {
		err = s.frontierRound(ctx, r, rd)
	}
	if err != nil {
		return err
	}
	if rd.traced {
		addRunnerLayers(rd.layers, r.Metrics().Snapshot())
		if rd.first {
			rd.layers["sim.replay_us"] = replayMicros(s.broker.all(), s.grid)
		}
	}
	return nil
}

// frontierRound prices the dense frontier of every program. A sweep error
// fails the round's every grid point.
func (s *gridState) frontierRound(ctx context.Context, r *core.Runner, rd *round) error {
	opts := frontier.Options{Device: k20c()}
	rd.start()
	var results []*frontier.Result
	var err error
	if rd.traced {
		for _, p := range s.progs {
			var res *frontier.Result
			pprof.Do(ctx, pprof.Labels("program", p.Name()), func(ctx context.Context) {
				sp := rd.call("Sweep "+p.Name(), "frontier")
				res, err = frontier.Sweep(ctx, r, p, opts)
				sp.end()
			})
			if err != nil {
				break
			}
			results = append(results, res)
		}
	} else {
		results, err = frontier.SweepAll(ctx, r, s.progs, opts)
	}
	rd.stop()
	rd.attempted = len(s.progs) * len(s.grid)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		rd.failed = rd.attempted
		return nil
	}
	rd.wrong = s.golden.frontierMismatches(results, canonicalNames())
	return nil
}

// attribRound attributes every program's energy at every grid point. The
// traced round makes AttributionSweep's calls itself, to time the
// simulate (here: replay) and attribute halves apart.
func (s *gridState) attribRound(ctx context.Context, r *core.Runner, rd *round) error {
	rd.start()
	var rows []core.ProgramAttribution
	var err error
	if rd.traced {
		rows, err = tracedAttribution(ctx, r, s.progs, s.grid, rd)
	} else {
		rows, err = core.AttributionSweep(ctx, r, s.progs, s.grid)
	}
	rd.stop()
	rd.attempted = len(s.progs) * len(s.grid)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		rd.failed = rd.attempted
		return nil
	}
	rd.wrong = s.golden.attribMismatches(rows)
	return nil
}

func tracedAttribution(ctx context.Context, r *core.Runner, progs []core.Program, grid []kepler.Clocks, rd *round) ([]core.ProgramAttribution, error) {
	var rows []core.ProgramAttribution
	var simulate, attribute time.Duration
	var err error
	for _, p := range progs {
		pprof.Do(ctx, pprof.Labels("program", p.Name()), func(ctx context.Context) {
			for _, clk := range grid {
				t0 := time.Now()
				sp := rd.call("SimulatedDevice "+p.Name()+"@"+clk.Name, "core")
				var dev *sim.Device
				dev, err = r.SimulatedDevice(ctx, p, p.DefaultInput(), clk)
				sp.end()
				t1 := time.Now()
				if err != nil {
					return
				}
				sp = rd.call("Attribute "+p.Name()+"@"+clk.Name, "power")
				a := power.Attribute(dev)
				sp.end()
				simulate += t1.Sub(t0)
				attribute += time.Since(t1)
				rows = append(rows, core.ProgramAttribution{Program: p.Name(), Input: p.DefaultInput(), Attribution: a})
			}
		})
		if err != nil {
			return nil, err
		}
	}
	rd.layers["core.simulated_device_s"] = simulate.Seconds()
	rd.layers["power.attribute_s"] = attribute.Seconds()
	return rows, nil
}

// replayMicros is the median LaunchTrace.Replay time in microseconds, timed
// from outside over every trace at every grid configuration but the default
// one (where the trace was captured).
func replayMicros(traces []*sim.LaunchTrace, grid []kepler.Clocks) float64 {
	def := k20c().DefaultConfig().Name
	var us []float64
	for _, tr := range traces {
		for _, clk := range grid {
			if clk.Name == def {
				continue
			}
			t0 := time.Now()
			if _, err := tr.Replay(clk); err != nil {
				continue // a refused replay is not a replay time
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(us)
}

// addRunnerLayers adds the per-layer metrics the runners export through
// their registries (summed over runners: the fleet has two workers).
func addRunnerLayers(layers map[string]float64, snaps ...obs.Snapshot) {
	stages := map[string]string{
		core.StageSimulate: "core.simulate_s",
		core.StageTimeline: "core.timeline_s",
		core.StagePerturb:  "core.perturb_s",
		core.StageRecord:   "sensor.record_s",
		core.StageAnalyze:  "k20power.analyze_s",
	}
	counters := map[string]string{
		"measure_cache_misses":           "core.measurements",
		"trace_cache_captures":           "core.trace.captures",
		"trace_cache_replays":            "core.trace.replays",
		"trace_cache_sensitive_runs":     "core.trace.sensitive_runs",
		"pool_shard_slots_granted_total": "sim.pool.shard_grants",
		"pool_shard_denials_total":       "sim.pool.shard_denials",
		"frontier_replays":               "frontier.replays",
		"frontier_optimizer_evals":       "frontier.optimizer_evals",
		"frontier_interpolated":          "frontier.interpolated",
		"trace_broker_fetch_hits":        "core.broker.fetch_hits",
		"trace_broker_fetch_misses":      "core.broker.fetch_misses",
		"trace_broker_puts":              "core.broker.puts",
	}
	var outcomes int64
	for _, s := range snaps {
		for stage, name := range stages {
			layers[name] += s.Histograms["stage_"+stage+"_seconds"].SumSeconds
		}
		for counter, name := range counters {
			layers[name] += float64(s.Counters[counter])
		}
		outcomes += s.Histograms["stage_"+core.StageSimulate+"_seconds"].Count
	}
	if outcomes > 0 {
		layers["core.trace.replay_ratio"] = layers["core.trace.replays"] / float64(outcomes)
	}
}

// memBroker is an in-memory core.TraceBroker: the grid workloads' set-up
// captures into it and every round's fresh runner replays from it.
type memBroker struct {
	mu     sync.Mutex
	traces map[string]*sim.LaunchTrace
}

func newMemBroker() *memBroker { return &memBroker{traces: make(map[string]*sim.LaunchTrace)} }

func brokerKey(device, program, input string) string {
	return device + "\x00" + program + "\x00" + input
}

func (b *memBroker) FetchTrace(device, program, input string) *sim.LaunchTrace {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.traces[brokerKey(device, program, input)]
}

func (b *memBroker) StoreTrace(device, program, input string, tr *sim.LaunchTrace) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.traces[brokerKey(device, program, input)] = tr
}

func (b *memBroker) all() []*sim.LaunchTrace {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*sim.LaunchTrace, 0, len(b.traces))
	for _, tr := range b.traces {
		out = append(out, tr)
	}
	return out
}

// requireInsensitive fails unless tr is a clock-insensitive trace of p.
func requireInsensitive(p core.Program, tr *sim.LaunchTrace) error {
	switch {
	case tr == nil:
		return fmt.Errorf("no trace captured for %s", p.Name())
	case tr.ClockSensitive():
		return fmt.Errorf("%s is clock-sensitive (%s); the workload needs the 20 insensitive programs", p.Name(), tr.SensitiveReason())
	}
	return nil
}
