package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/hashing"
	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Result is the outcome of measuring one (program, input, configuration)
// combination on one board: the per-repetition measurements and their
// per-metric medians (the paper reports the median of three runs for each
// metric), or an insufficient-samples exclusion (the paper's "program
// excluded at this configuration"), whose measurement fields are zero.
//
// It is also the one serialized form of a resolved measurement: the store
// file, GET /v1/results, POST /v1/shard and a POST /v1/measure 200 body all
// carry it in this shape and field order.
type Result struct {
	Program string `json:"program"`
	Input   string `json:"input"`
	Config  string `json:"config"`
	Board   string `json:"board"`

	// ActiveTime, Energy and AvgPower are the per-metric medians.
	ActiveTime float64 `json:"activeTime"`
	Energy     float64 `json:"energy"`
	AvgPower   float64 `json:"avgPower"`

	// TrueActiveTime and TrueEnergy are the simulator's ground truth, kept
	// for validating the measurement stack (not used by the experiments).
	TrueActiveTime float64 `json:"trueActiveTime"`
	TrueEnergy     float64 `json:"trueEnergy"`

	// Reps holds the repetitions' measurements: the analyses of the
	// repetitions' sensor logs (Runner.SensorLogs) that yielded one, in
	// repetition order.
	Reps []k20power.Measurement `json:"reps"`

	// Insufficient marks an exclusion; it is resolved too, so reruns skip
	// the simulation. Measure never returns one: it reports an exclusion
	// as an error IsInsufficient recognizes.
	Insufficient bool `json:"insufficient,omitempty"`
}

// TimeSpread, EnergySpread return the (max-min)/min variability across the
// repetitions, the paper's Table 2 metric.
func (r *Result) TimeSpread() float64 {
	return stats.Spread(metric(r.Reps, func(m k20power.Measurement) float64 { return m.ActiveTime }))
}

// EnergySpread is the energy counterpart of TimeSpread.
func (r *Result) EnergySpread() float64 {
	return stats.Spread(metric(r.Reps, func(m k20power.Measurement) float64 { return m.Energy }))
}

func metric(ms []k20power.Measurement, f func(k20power.Measurement) float64) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = f(m)
	}
	return out
}

// medianOf reduces one metric of the repetitions to its median, using
// *scratch as the metric's work slice.
func medianOf(scratch *[]float64, ms []k20power.Measurement, f func(k20power.Measurement) float64) float64 {
	vals := (*scratch)[:0]
	for _, m := range ms {
		vals = append(vals, f(m))
	}
	*scratch = vals
	return stats.MedianInPlace(vals)
}

// Runner measures programs through the full stack and caches results.
type Runner struct {
	// Repetitions is the number of repeated measurements (the paper uses 3).
	Repetitions int
	// Workers bounds the runner's total simulation parallelism: concurrent
	// measurements (MeasureAll fan-out) and the per-launch block sharding
	// inside each device draw from one shared pool of this size, so the two
	// layers never oversubscribe the machine. 0 means GOMAXPROCS. Worker
	// count never affects measured values (the engine is bit-identical for
	// any worker count), only wall-clock time.
	Workers int
	// Broker, when set, extends the launch-trace cache across a fleet: the
	// simulate stage consults it before paying for a capture and publishes
	// successful captures back, so N workers measuring the same (device,
	// program, input) pair simulate it once fleet-wide. A fetched trace is
	// replayed exactly like a locally captured one (bit-identical by the
	// replay contract), so sharded results match single-process results byte
	// for byte. Must be set before the first Measure call.
	Broker TraceBroker

	// results caches the measurements, and traces the per-(program,
	// input, device) launch traces the simulate stage replays: a program
	// simulates once, at the first requested configuration, and every
	// measurement replays.
	results flight[resultKey, *Result]
	traces  flight[traceKey, *sim.LaunchTrace]

	poolOnce sync.Once
	pool     *sim.WorkerPool

	metricsOnce sync.Once
	metrics     *runnerMetrics
}

// workerPool returns the runner's shared simulation worker pool, created on
// first use from Workers and instrumented in the runner's metrics registry.
func (r *Runner) workerPool() *sim.WorkerPool {
	r.poolOnce.Do(func() {
		n := r.Workers
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		r.pool = sim.NewWorkerPool(n)
		r.pool.Instrument(r.Metrics())
	})
	return r.pool
}

// WorkerPool returns the runner's shared simulation worker pool, creating
// it on first use. Services that admit external measurement traffic acquire
// one slot per in-flight measurement — exactly like MeasureAll jobs — so
// HTTP requests, sweeps and per-launch block sharding all draw from the same
// bounded budget and never oversubscribe the machine.
func (r *Runner) WorkerPool() *sim.WorkerPool { return r.workerPool() }

// TraceBroker shares launch traces across a fleet of runners. FetchTrace
// returns the fleet's capture for the (device, program, input) pair, or nil
// when none exists (or the broker is unreachable — a miss, never an error:
// the caller falls back to capturing locally). StoreTrace publishes a local
// capture; it is best-effort and must not block measurement correctness.
// Only replayable traces are published. Implementations must be safe for
// concurrent use.
type TraceBroker interface {
	FetchTrace(device, program, input string) *sim.LaunchTrace
	StoreTrace(device, program, input string, tr *sim.LaunchTrace)
}

// traceKey keys the launch-trace cache by (program, input, device): block
// statistics and per-block issue cycles depend on the device's geometry and
// throughputs, so a trace captured on one device never serves another (and
// sim.LaunchTrace.Replay refuses the mismatch as a second line of defense).
type traceKey struct{ program, input, device string }

func traceKeyOf(p Program, input string, clk kepler.Clocks) traceKey {
	return traceKey{p.Name(), input, clk.Device().Name}
}

// NewRunner returns a Runner with the paper's methodology defaults.
func NewRunner() *Runner {
	return &Runner{Repetitions: 3}
}

// isCtxErr reports whether err is a context cancellation or deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Measure runs the program at the given input and configuration (cached).
// It returns ErrInsufficientSamples-wrapped errors when the sensor could not
// collect enough samples, which experiments treat as "program excluded at
// this configuration" exactly like the paper does.
//
// Cancellation: when ctx fires mid-measurement the call returns the context
// error and the cache entry is evicted, so a later call with a live context
// recomputes the combination (a canceled run is not a result). Entries that
// completed before the cancel stay cached and valid. Concurrent callers of
// the same combination share one computation, each waiting on its own
// context; if the computing caller's context is canceled, a waiter measures
// the combination itself.
func (r *Runner) Measure(ctx context.Context, p Program, input string, clk kepler.Clocks) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, path, err := r.results.do(ctx, resultKeyOf(Combo{p, input, clk}), keepMeasurement, func() (*Result, error) {
		return r.measure(ctx, p, input, clk)
	})
	m := r.metricsHandles()
	switch path {
	case flightHit:
		m.cacheHits.Inc()
	case flightClaim:
		m.cacheMisses.Inc()
	default:
		m.singleflightWaits.Inc()
	}
	return res, err
}

// keepMeasurement reports whether a measurement's outcome may stay cached:
// a result, an exclusion and a hard failure do, a canceled run does not.
func keepMeasurement(err error) bool { return !isCtxErr(err) }

// measure drives the staged pipeline: simulate once (execution is
// deterministic per configuration), then derive Repetitions independent
// sensor recordings, mirroring repeated wall-clock runs. See stages.go for
// the stage inventory.
func (r *Runner) measure(ctx context.Context, p Program, input string, clk kepler.Clocks) (*Result, error) {
	st := borrowState(ctx, Combo{p, input, clk})
	defer st.release()
	if err := r.runStages(ctx, st, measureStages); err != nil {
		return nil, err
	}
	return st.res, nil
}

// runtimeJitter is the per-repetition relative runtime perturbation standard
// deviation (models OS/driver/thermal run-to-run variation).
const runtimeJitter = 0.008

// perturbTimeline stretches the timeline by a small random factor and scales
// power by another, modeling run-to-run machine variation. It appends the
// perturbed segments to dst.
func perturbTimeline(dst, segs []power.Segment, seed uint64) []power.Segment {
	rng := xrand.New(seed ^ 0xfeedface ^ 0x7335f4914f6cdd1d)
	ts := 1 + rng.Norm()*runtimeJitter
	ps := 1 + rng.Norm()*runtimeJitter*0.4
	if ts < 0.9 {
		ts = 0.9
	}
	if ps < 0.9 {
		ps = 0.9
	}
	for _, s := range segs {
		dst = append(dst, power.Segment{Start: s.Start * ts, Duration: s.Duration * ts, Watts: s.Watts * ps})
	}
	return dst
}

// MeasureAll measures every (program, input, config) combination in
// parallel, returning the results keyed the same way Measure caches them.
// Combinations that fail with insufficient samples are skipped (the paper's
// exclusions); every other failure is collected and reported via
// errors.Join, so one broken program does not mask the others.
//
// When ctx is canceled the sweep winds down promptly — queued jobs stop
// before acquiring a worker, running simulations abort at the next block
// boundary — and MeasureAll reports the context error once (not once per
// job) alongside any unrelated failures. Combinations measured before the
// cancel remain cached.
func (r *Runner) MeasureAll(ctx context.Context, programs []Program, configs []kepler.Clocks, allInputs bool) error {
	return r.MeasureList(ctx, EnumerateCombos(programs, configs, allInputs))
}

// Combo identifies one (program, input, configuration) measurement of a
// sweep. The sweep fabric shards sweeps at Combo granularity.
type Combo struct {
	Program Program
	Input   string
	Clocks  kepler.Clocks
}

// EnumerateCombos expands the sweep matrix in the deterministic order
// MeasureAll has always used: programs in the given order, each program's
// inputs (the default input unless allInputs), then configs. The
// coordinator enumerates with the same function, so shard assignment and
// progress accounting agree with a single-process sweep combination for
// combination.
func EnumerateCombos(programs []Program, configs []kepler.Clocks, allInputs bool) []Combo {
	var combos []Combo
	for _, p := range programs {
		inputs := []string{p.DefaultInput()}
		if allInputs {
			inputs = p.Inputs()
		}
		for _, in := range inputs {
			for _, clk := range configs {
				combos = append(combos, Combo{p, in, clk})
			}
		}
	}
	return combos
}

// MeasureList measures the given combinations in parallel with the same
// semantics as MeasureAll (it is the engine of MeasureAll and MeasureEach):
// insufficient-sample failures are the paper's exclusions and not errors,
// other failures are joined, cancellation is reported once.
func (r *Runner) MeasureList(ctx context.Context, combos []Combo) error {
	if ctx == nil {
		ctx = context.Background()
	}
	m := r.metricsHandles()
	m.sweepJobsTotal.Add(int64(len(combos)))
	// One dispatcher per worker slot pulls jobs in queue order. Each holds
	// one slot of the shared pool while it measures; the launches inside a
	// job borrow any remaining slots for block sharding (sim.WorkerPool).
	// Total simulation goroutines therefore stay at the worker budget
	// whether the sweep is wide (many jobs, no spare slots) or narrow (one
	// job sharding its launches across the whole budget).
	pool := r.workerPool()
	queue := capturesFirst(combos)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		failures []error
		canceled atomic.Bool
		wg       sync.WaitGroup
	)
	for w := min(pool.Budget(), len(queue)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(queue)); i = next.Add(1) - 1 {
				switch err := r.sweepJob(ctx, pool, queue[i]); {
				case err == nil || IsInsufficient(err):
					m.sweepJobsDone.Inc()
				case isCtxErr(err):
					// Once ctx fires, every remaining queue entry lands here
					// at Acquire without measuring anything.
					m.sweepJobsCanceled.Inc()
					canceled.Store(true)
				default:
					mu.Lock()
					failures = append(failures, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if canceled.Load() {
		// Report the cancellation once instead of once per affected job.
		if err := ctx.Err(); err != nil {
			failures = append(failures, err)
		} else {
			failures = append(failures, context.Canceled)
		}
	}
	return errors.Join(failures...)
}

// MeasureEach measures the combinations in parallel with MeasureList, then
// reads each one back from the cache in list order: the results are
// index-aligned with combos, and an exclusion (too few samples) is nil. The
// error is the first hard failure in combo order, or the context error, so
// it does not depend on the worker count or the completion order. The
// read-back is not a cache lookup: measure_cache_hits and _misses count
// what MeasureList found.
func (r *Runner) MeasureEach(ctx context.Context, combos []Combo) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Failures resurface below, in combo order, as cached outcomes.
	_ = r.MeasureList(ctx, combos)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// MeasureList resolved every combination: Measure returns only once
	// its combination's outcome is cached or its own context is done.
	out := make([]*Result, len(combos))
	for i, c := range combos {
		e := r.results.get(resultKeyOf(c))
		switch {
		case e.err == nil:
			out[i] = e.val
		case IsInsufficient(e.err):
			// excluded, like the paper's dashes
		default:
			return nil, e.err
		}
	}
	return out, nil
}

// exclusionError is the error of a caller that cannot do without a
// measurement MeasureEach reported as an exclusion; IsInsufficient
// recognizes it.
func exclusionError(c Combo) error {
	return fmt.Errorf("%s/%s@%s: %w", c.Program.Name(), c.Input, c.Clocks.Name, k20power.ErrInsufficientSamples)
}

// sweepJob measures one combination while holding a worker slot.
func (r *Runner) sweepJob(ctx context.Context, pool *sim.WorkerPool, j Combo) error {
	if err := pool.Acquire(ctx); err != nil {
		return err
	}
	defer pool.Release(1)
	_, err := r.Measure(ctx, j.Program, j.Input, j.Clocks)
	return err
}

// capturesFirst orders a sweep's jobs for its dispatchers: the first
// combination of each (program, input, device) trace key — the one that
// captures the launch trace — comes first, then every other combination,
// each part in its original order. The dispatchers thus capture distinct
// programs side by side instead of one waiting on another's in-flight
// capture, and the other configurations' replays follow once the traces
// exist.
func capturesFirst(combos []Combo) []Combo {
	queue := make([]Combo, 0, len(combos))
	var rest []Combo
	seen := make(map[traceKey]bool)
	for _, c := range combos {
		if k := traceKeyOf(c.Program, c.Input, c.Clocks); !seen[k] {
			seen[k] = true
			queue = append(queue, c)
		} else {
			rest = append(rest, c)
		}
	}
	return append(queue, rest...)
}

// IsInsufficient reports whether the error means the run yielded too few
// power samples to analyze (the paper's exclusion criterion).
func IsInsufficient(err error) bool {
	return errors.Is(err, k20power.ErrInsufficientSamples) || errors.Is(err, k20power.ErrNoActivity)
}

// seedFor derives the per-repetition noise seed from the measurement
// identity (see internal/hashing; the Word step separates the fields). The
// repetition folds in as its decimal digits.
func seedFor(program, input, device, config string, rep int) uint64 {
	h := hashing.New()
	for _, part := range [...]string{program, input, device, config, strconv.Itoa(rep)} {
		h = h.String(part).Word(0x1f)
	}
	return h.Sum()
}
