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
// config) in two steps: get the pair's launch trace (trace), then price it
// at the configuration (sim.LaunchTrace.Replay, bit-identical to a fresh
// simulation), so every measured device — the capture configuration's
// included — is a replay. Only a NoReplay runner simulates every
// configuration afresh, as the reference replay is checked against.
// Cancellation aborts between thread blocks and surfaces as the context
// error.
func (r *Runner) stageSimulate(st *measureState) error {
	var err error
	if r.NoReplay {
		st.dev, err = r.simulateFresh(st, false)
		return err
	}
	tr, err := r.trace(st)
	if err != nil {
		return err
	}
	if st.dev, err = tr.Replay(st.clk); err != nil {
		return err
	}
	r.metricsHandles().traceReplays.Inc()
	return nil
}

// trace returns the launch trace of st's (program, input, device) pair from
// the runner's cache, waiting while another measurement captures it. The
// first measurement of a pair claims its cache entry and fills it; a waiter
// whose capturer failed (the entry is then evicted) claims the pair anew.
func (r *Runner) trace(st *measureState) (*sim.LaunchTrace, error) {
	key := traceKeyOf(st.p, st.input, st.clk)
	for {
		r.traceMu.Lock()
		if r.traces == nil {
			r.traces = make(map[traceKey]*traceEntry)
		}
		e, ok := r.traces[key]
		if !ok {
			e = &traceEntry{done: make(chan struct{})}
			r.traces[key] = e
			r.traceMu.Unlock()
			return r.fill(st, key, e)
		}
		r.traceMu.Unlock()
		select {
		case <-e.done:
		case <-st.ctx.Done():
			return nil, st.ctx.Err()
		}
		if e.trace != nil {
			return e.trace, nil
		}
	}
}

// fill obtains the trace for a claimed entry — the fleet broker's, if it
// holds a replayable one, else a local capture — and publishes it to the
// entry's waiters. A failed (or panicking) capture publishes nothing: the
// entry is evicted so the next measurement of the pair recaptures.
func (r *Runner) fill(st *measureState, key traceKey, e *traceEntry) (tr *sim.LaunchTrace, err error) {
	defer func() {
		if tr == nil {
			r.traceMu.Lock()
			if r.traces[key] == e {
				delete(r.traces, key)
			}
			r.traceMu.Unlock()
		}
		e.trace = tr
		close(e.done)
	}()
	m := r.metricsHandles()
	device := st.clk.Device().Name
	if r.Broker != nil {
		// Adopting another worker's capture replays bit-identically to
		// capturing here.
		if tr := r.Broker.FetchTrace(device, st.p.Name(), st.input); tr != nil && tr.DeviceName() == device && !tr.ClockSensitive() {
			m.brokerFetchHits.Inc()
			m.traceBytes.Add(tr.Bytes())
			return tr, nil
		}
		m.brokerFetchMisses.Inc()
	}
	dev, err := r.simulateFresh(st, true)
	if err != nil {
		return nil, err
	}
	tr = dev.EndCapture()
	if tr.ClockSensitive() {
		// A mid-run clock read makes the program's Go state evolve per
		// configuration, so no trace of it can be replayed.
		return nil, fmt.Errorf("clock-sensitive program (%s): its launch trace cannot be replayed", tr.SensitiveReason())
	}
	m.traceCaptures.Inc()
	m.traceBytes.Add(tr.Bytes())
	if r.Broker != nil {
		r.Broker.StoreTrace(device, st.p.Name(), st.input, tr)
		m.brokerPuts.Inc()
	}
	return tr, nil
}

// simulateFresh runs the program on a fresh device at st's configuration,
// recording its launch trace when capture is set (the caller ends the
// capture).
func (r *Runner) simulateFresh(st *measureState, capture bool) (*sim.Device, error) {
	r.metricsHandles().simulateRun(st.clk.Device().Name)
	dev := sim.NewDevice(st.clk)
	dev.SetWorkerPool(r.workerPool())
	if capture {
		dev.BeginCapture()
	}
	return dev, RunProgram(st.ctx, st.p, dev, st.input)
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
