package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sim"
)

// The measurement pipeline is an explicit sequence of named stages. Each
// stage is individually timed (a duration histogram per stage in the
// runner's metrics registry) and error-attributed: a failure surfaces as
// "<program>/<input>@<config>: <stage>: <cause>". The stage split changes
// no measured value — it is the same computation as the former monolithic
// measure, cut at its natural seams.
const (
	// StageSimulate executes the program on a fresh simulated device.
	StageSimulate = "simulate"
	// StageTimeline converts the device's launch record into a power
	// timeline and captures the simulator's ground truth.
	StageTimeline = "timeline"
	// StagePerturb applies the per-repetition runtime/power jitter.
	StagePerturb = "perturb"
	// StageRecord samples each perturbed timeline through the on-board
	// sensor model.
	StageRecord = "record"
	// StageAnalyze runs the K20Power analysis per repetition and reduces
	// the repetitions to their per-metric medians.
	StageAnalyze = "analyze"
)

// StageNames lists the pipeline stages in execution order.
var StageNames = []string{StageSimulate, StageTimeline, StagePerturb, StageRecord, StageAnalyze}

// measureState carries one measurement through the staged pipeline.
type measureState struct {
	ctx   context.Context
	p     Program
	input string
	clk   kepler.Clocks

	dev       *sim.Device
	segs      []power.Segment
	seeds     []uint64
	perturbed [][]power.Segment
	samples   [][]sensor.Sample
	res       *Result

	// buf lends the per-repetition buffers; nil until stagePerturb
	// borrows it, and returned to repBufferPool by release.
	buf *repBuffers
}

// repBuffers are one measurement's per-repetition work buffers: the
// perturbed timelines, the sensor logs and the analysis scratch. A
// measurement borrows them from repBufferPool and returns them when it
// finishes, so a grid of replays reuses a few sets instead of allocating
// every repetition's buffers afresh. Sensor logs that Runner.KeepTraces
// hands out in Result.Traces never come from here.
type repBuffers struct {
	perturbed [][]power.Segment
	samples   [][]sensor.Sample
	analyzer  k20power.Analyzer
}

var repBufferPool = sync.Pool{New: func() any { return new(repBuffers) }}

// release returns the borrowed buffers to the pool. The measurement's
// Result holds no reference into them.
func (st *measureState) release() {
	if st.buf != nil {
		repBufferPool.Put(st.buf)
		st.buf, st.perturbed, st.samples = nil, nil, nil
	}
}

// reps returns n per-repetition slices backed by *bufs, growing it as
// needed, so the slices' storage survives for the next measurement.
func reps[T any](bufs *[][]T, n int) [][]T {
	for len(*bufs) < n {
		*bufs = append(*bufs, nil)
	}
	return (*bufs)[:n]
}

// stage is one named step of the measurement pipeline.
type stage struct {
	name string
	run  func(*Runner, *measureState) error
}

// measureStages is the pipeline in execution order.
var measureStages = []stage{
	{StageSimulate, (*Runner).stageSimulate},
	{StageTimeline, (*Runner).stageTimeline},
	{StagePerturb, (*Runner).stagePerturb},
	{StageRecord, (*Runner).stageRecord},
	{StageAnalyze, (*Runner).stageAnalyze},
}

// runStages drives st through the pipeline: a context check before every
// stage (so cancellation is honored between stages as well as inside the
// simulate stage's block loops), a duration observation per stage, and
// error attribution naming the stage that failed.
func (r *Runner) runStages(ctx context.Context, st *measureState) error {
	m := r.metricsHandles()
	for _, sg := range measureStages {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		err := sg.run(r, st)
		m.stageHist[sg.name].Observe(time.Since(start))
		if err != nil {
			return fmt.Errorf("%s/%s@%s: %s: %w", st.p.Name(), st.input, st.clk.Name, sg.name, err)
		}
	}
	return nil
}

// stageSimulate produces the completed device for this (program, input,
// config) — by full warp-level simulation or, when the launch-trace cache
// holds a clock-insensitive trace of the pair, by replaying only the timing
// model against it (sim.LaunchTrace.Replay; bit-identical to a fresh
// simulation, so every downstream stage is oblivious to which path ran).
// Execution is deterministic per configuration; cancellation aborts between
// thread blocks and surfaces as the context error.
func (r *Runner) stageSimulate(st *measureState) error {
	if r.NoReplay {
		_, err := r.simulateFresh(st, false)
		return err
	}
	m := r.metricsHandles()
	key := traceKeyOf(st.p, st.input, st.clk)

	r.traceMu.Lock()
	if r.traces == nil {
		r.traces = make(map[traceKey]*traceEntry)
	}
	e, ok := r.traces[key]
	if !ok {
		// First measurement of this (program, input) on this runner: claim
		// the entry. Before paying for a capture, ask the fleet broker (if
		// any) whether another worker already captured the pair — adopting
		// its trace replays bit-identically to simulating here.
		e = &traceEntry{done: make(chan struct{})}
		r.traces[key] = e
		r.traceMu.Unlock()

		if r.Broker != nil {
			dev := st.clk.Device().Name
			if tr := r.Broker.FetchTrace(dev, st.p.Name(), st.input); tr != nil && tr.DeviceName() == dev {
				m.brokerFetchHits.Inc()
				e.trace = tr
				close(e.done)
				m.traceBytes.Add(tr.Bytes())
				if tr.ClockSensitive() {
					m.traceSensitive.Inc()
				}
				return r.consumeTrace(st, tr)
			}
			m.brokerFetchMisses.Inc()
		}

		published := false
		defer func() {
			if !published {
				// Failed (or panicking) capture: never publish a partial
				// trace — evict the entry so the next measurement
				// recaptures, and wake waiters to simulate on their own.
				r.traceMu.Lock()
				if r.traces[key] == e {
					delete(r.traces, key)
				}
				r.traceMu.Unlock()
				close(e.done)
			}
		}()
		tr, err := r.simulateFresh(st, true)
		if err != nil {
			return err
		}
		e.trace = tr
		published = true
		close(e.done)
		m.traceCaptures.Inc()
		m.traceBytes.Add(tr.Bytes())
		if tr.ClockSensitive() {
			m.traceSensitive.Inc()
		}
		if r.Broker != nil {
			r.Broker.StoreTrace(st.clk.Device().Name, st.p.Name(), st.input, tr)
			m.brokerPuts.Inc()
		}
		return nil
	}
	r.traceMu.Unlock()

	// Another measurement of the pair is capturing (or has captured): wait
	// for the trace rather than simulating the same work in parallel.
	select {
	case <-e.done:
	case <-st.ctx.Done():
		return st.ctx.Err()
	}
	if e.trace == nil {
		// The capture failed (typically canceled). Its entry is already
		// evicted; simulate independently without touching the cache.
		_, err := r.simulateFresh(st, false)
		return err
	}
	return r.consumeTrace(st, e.trace)
}

// consumeTrace produces the measurement's device from a published trace:
// replay when the trace is insensitive, a fresh per-configuration
// simulation when it is clock-sensitive (or the replay is refused — e.g. a
// mismatched device, impossible for cache-keyed traces but kept as a
// defense in depth).
func (r *Runner) consumeTrace(st *measureState, tr *sim.LaunchTrace) error {
	m := r.metricsHandles()
	if tr.ClockSensitive() {
		// A mid-run clock read makes the program's Go state evolve per
		// configuration: replay would be unsound, so every configuration
		// pays for its own simulation.
		m.traceSensitiveRuns.Inc()
		_, err := r.simulateFresh(st, false)
		return err
	}
	dev, err := tr.Replay(st.clk)
	if err != nil {
		_, err := r.simulateFresh(st, false)
		return err
	}
	dev.SetWorkerPool(r.workerPool())
	st.dev = dev
	m.traceReplays.Inc()
	return nil
}

// simulateFresh runs the program on a fresh device, optionally capturing
// the clock-independent launch trace. On error the device (and any partial
// capture) is discarded.
func (r *Runner) simulateFresh(st *measureState, capture bool) (*sim.LaunchTrace, error) {
	r.metricsHandles().simulateRun(st.clk.Device().Name)
	dev := sim.NewDevice(st.clk)
	dev.SetWorkerPool(r.workerPool())
	st.dev = dev
	if capture {
		dev.BeginCapture()
	}
	if err := RunProgram(st.ctx, st.p, dev, st.input); err != nil {
		return nil, err
	}
	if capture {
		return dev.EndCapture(), nil
	}
	return nil, nil
}

// stageTimeline derives the power timeline and ground truth from the
// completed simulation.
func (r *Runner) stageTimeline(st *measureState) error {
	st.segs = power.Timeline(st.dev)
	st.res = &Result{
		Program:        st.p.Name(),
		Input:          st.input,
		Config:         st.clk.Name,
		TrueActiveTime: st.dev.ActiveTime(),
		TrueEnergy:     power.ActiveEnergy(st.dev),
	}
	return nil
}

// stagePerturb derives each repetition's seed and jittered timeline,
// mirroring repeated wall-clock runs on a real machine.
func (r *Runner) stagePerturb(st *measureState) error {
	n := max(r.Repetitions, 1)
	st.buf = repBufferPool.Get().(*repBuffers)
	st.seeds = make([]uint64, n)
	st.perturbed = reps(&st.buf.perturbed, n)
	for rep := 0; rep < n; rep++ {
		st.seeds[rep] = seedFor(st.p.Name(), st.input, st.clk.Device().Name, st.clk.Name, rep)
		st.perturbed[rep] = perturbTimeline(st.perturbed[rep][:0], st.segs, st.seeds[rep])
	}
	return nil
}

// stageRecord samples every perturbed timeline through the sensor model.
func (r *Runner) stageRecord(st *measureState) error {
	dev := st.clk.Device()
	if r.KeepTraces {
		// The logs outlive the measurement in Result.Traces.
		st.samples = make([][]sensor.Sample, len(st.perturbed))
	} else {
		st.samples = reps(&st.buf.samples, len(st.perturbed))
	}
	for rep := range st.perturbed {
		st.samples[rep] = sensor.AppendRecord(st.samples[rep][:0], st.perturbed[rep], dev.Sensor, st.seeds[rep])
	}
	return nil
}

// stageAnalyze runs the K20Power analysis on each repetition's trace and
// reduces the surviving repetitions to their per-metric medians. Individual
// repetitions may fail (insufficient samples); the stage fails only when
// none survive, reporting the first per-repetition error.
func (r *Runner) stageAnalyze(st *measureState) error {
	dev := st.clk.Device()
	var firstErr error
	for rep := range st.samples {
		m, err := st.buf.analyzer.Analyze(st.samples[rep], dev)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		st.res.Reps = append(st.res.Reps, m)
		if r.KeepTraces {
			st.res.Traces = append(st.res.Traces, st.samples[rep])
		}
	}
	if len(st.res.Reps) == 0 {
		return firstErr
	}
	st.res.ActiveTime = medianOf(st.res.Reps, func(m k20power.Measurement) float64 { return m.ActiveTime })
	st.res.Energy = medianOf(st.res.Reps, func(m k20power.Measurement) float64 { return m.Energy })
	st.res.AvgPower = medianOf(st.res.Reps, func(m k20power.Measurement) float64 { return m.AvgPower })
	return nil
}
