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
	// StageSimulate gets the program's launch trace (capturing it on a GPU
	// the first time) and prices it at the configuration by replay.
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

	// buf lends the measurement's work buffers; borrowState borrows it
	// from repBufferPool and release returns it. Nil on the SimulatedDevice
	// path, whose callers keep the device.
	buf *repBuffers
}

// repBuffers are one measurement's work buffers: the replayed device, the
// timeline, the perturbed timelines, the sensor logs, the analysis scratch
// and the repetitions' metric values the medians sort. A measurement
// borrows them from repBufferPool and returns them when it finishes, so a
// grid of replays reuses a few sets instead of allocating every launch
// record and every repetition's buffers afresh. The sensor logs SensorLogs
// hands out leave the pool with the caller.
type repBuffers struct {
	dev       *sim.Device
	segs      []power.Segment
	perturbed [][]power.Segment
	samples   [][]sensor.Sample
	analyzer  k20power.Analyzer
	metric    []float64
}

var repBufferPool = sync.Pool{New: func() any { return new(repBuffers) }}

// borrowState returns the state of a measurement of c, with work buffers
// borrowed from repBufferPool; release returns them.
func borrowState(ctx context.Context, c Combo) *measureState {
	buf := repBufferPool.Get().(*repBuffers)
	return &measureState{ctx: ctx, p: c.Program, input: c.Input, clk: c.Clocks, buf: buf, dev: buf.dev}
}

// release returns the borrowed buffers, the measured device among them, to
// the pool. The measurement's Result holds no reference into them.
func (st *measureState) release() {
	if st.buf != nil {
		if st.dev != nil {
			st.buf.dev = st.dev
		}
		repBufferPool.Put(st.buf)
		st.buf, st.dev, st.segs, st.perturbed, st.samples = nil, nil, nil, nil, nil
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

// runStages drives st through the given stages: a context check before
// every stage (so cancellation is honored between stages as well as inside
// the simulate stage's block loops), a duration observation per stage, and
// error attribution naming the stage that failed.
func (r *Runner) runStages(ctx context.Context, st *measureState, stages []stage) error {
	m := r.metricsHandles()
	for _, sg := range stages {
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

// SensorLogs returns the sensor log of each repetition of c's measurement,
// in repetition order; Result.Reps holds the analyses of the logs that
// yielded one. It runs the measurement's stages up to the record stage
// again (capturing the launch trace if the runner holds none). They are
// deterministic, so the logs are the ones Measure analyzed, bit for bit,
// for an imported result too.
func (r *Runner) SensorLogs(ctx context.Context, c Combo) ([][]sensor.Sample, error) {
	st := borrowState(ctx, c)
	defer st.release()
	if err := r.runStages(ctx, st, measureStages[:len(measureStages)-1]); err != nil { // all but analyze
		return nil, err
	}
	logs := st.samples
	st.buf.samples = nil // the logs leave with the caller
	return logs, nil
}

// stageSimulate produces the priced device for this (program, input,
// config) in two steps: get the pair's launch trace (trace), then price it
// at the configuration (sim.LaunchTrace.ReplayInto), so every measured
// device — the capture configuration's included — is a replay. The replay
// reuses the storage of st.dev, a device nobody uses any more, when there
// is one. Cancellation aborts a capture between thread blocks and surfaces
// as the context error.
func (r *Runner) stageSimulate(st *measureState) error {
	tr, err := r.trace(st)
	if err != nil {
		return err
	}
	if st.dev, err = tr.ReplayInto(st.dev, st.clk); err != nil {
		return err
	}
	r.metricsHandles().traceReplays.Inc()
	return nil
}

// trace returns the launch trace of st's (program, input, device) pair from
// the runner's cache, waiting while another measurement captures it. The
// first measurement of a pair claims it and fills it; only a published trace
// is kept, so a waiter whose capturer failed claims the pair anew.
func (r *Runner) trace(st *measureState) (*sim.LaunchTrace, error) {
	tr, _, err := r.traces.do(st.ctx, traceKeyOf(st.p, st.input, st.clk), keepTrace, func() (*sim.LaunchTrace, error) {
		return r.fill(st)
	})
	return tr, err
}

// keepTrace reports whether a capture's outcome may stay cached: only a
// published trace does.
func keepTrace(err error) bool { return err == nil }

// fill obtains the trace for a claimed pair: the fleet broker's, if it
// holds a replayable one, else a local capture.
func (r *Runner) fill(st *measureState) (*sim.LaunchTrace, error) {
	m := r.metricsHandles()
	device := st.clk.Device()
	if r.Broker != nil {
		// Adopting another worker's capture replays bit-identically to
		// capturing here. A fetched tombstone is a miss.
		if tr := r.Broker.FetchTrace(device.Name, st.p.Name(), st.input); tr != nil && tr.DeviceName() == device.Name && !tr.ClockSensitive() {
			m.brokerFetchHits.Inc()
			m.traceBytes.Add(tr.Bytes())
			return tr, nil
		}
		m.brokerFetchMisses.Inc()
	}
	m.simulateRun(device.Name)
	gpu := sim.NewGPU(device)
	gpu.SetWorkerPool(r.workerPool())
	if err := RunProgram(st.ctx, st.p, gpu, st.input); err != nil {
		return nil, err
	}
	tr := gpu.Trace()
	m.traceCaptures.Inc()
	m.traceBytes.Add(tr.Bytes())
	if r.Broker != nil {
		r.Broker.StoreTrace(device.Name, st.p.Name(), st.input, tr)
		m.brokerPuts.Inc()
	}
	return tr, nil
}

// stageTimeline derives the power timeline and ground truth from the
// priced device.
func (r *Runner) stageTimeline(st *measureState) error {
	var energy float64
	st.buf.segs, energy = power.AppendTimeline(st.buf.segs[:0], st.dev)
	st.segs = st.buf.segs
	st.res = &Result{
		Program:        st.p.Name(),
		Input:          st.input,
		Config:         st.clk.Name,
		Board:          st.clk.Device().Name,
		TrueActiveTime: st.dev.ActiveTime(),
		TrueEnergy:     energy,
	}
	return nil
}

// stagePerturb derives each repetition's seed and jittered timeline,
// mirroring repeated wall-clock runs on a real machine.
func (r *Runner) stagePerturb(st *measureState) error {
	n := max(r.Repetitions, 1)
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
	st.samples = reps(&st.buf.samples, len(st.perturbed))
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
	}
	if len(st.res.Reps) == 0 {
		return firstErr
	}
	scratch := &st.buf.metric
	st.res.ActiveTime = medianOf(scratch, st.res.Reps, func(m k20power.Measurement) float64 { return m.ActiveTime })
	st.res.Energy = medianOf(scratch, st.res.Reps, func(m k20power.Measurement) float64 { return m.Energy })
	st.res.AvgPower = medianOf(scratch, st.res.Reps, func(m k20power.Measurement) float64 { return m.AvgPower })
	return nil
}
