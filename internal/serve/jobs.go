package serve

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// jobStatus is a job's lifecycle state. A job is a sweep, a frontier, an
// attribution or a coordinator-dispatched shard of one of them.
type jobStatus string

const (
	// jobQueued means the job is waiting for the single job executor.
	jobQueued jobStatus = "queued"
	// jobRunning means the job's work is in flight on the executor.
	jobRunning jobStatus = "running"
	// jobDone means the job completed (exclusions included; they are
	// results, not failures).
	jobDone jobStatus = "done"
	// jobCanceled means the job was aborted by server shutdown or an
	// explicit DELETE /v1/jobs/{id}.
	jobCanceled jobStatus = "canceled"
	// jobFailed means the job reported a hard failure.
	jobFailed jobStatus = "failed"
)

// shardView is one shard in a coordinator job view: a sweep's per-worker
// slice, or the single shard a frontier or attribution job runs as.
type shardView struct {
	ID     string    `json:"id"`
	Worker string    `json:"worker"`
	Status jobStatus `json:"status"`
	// Combinations is the shard's combo count; Done advances toward it
	// (read from the owning worker's job view).
	Combinations int64 `json:"combinations"`
	Done         int64 `json:"done"`
	// Redispatches counts how many times the shard moved to another worker
	// after its owner failed.
	Redispatches int64 `json:"redispatches,omitempty"`
}

// jobView is the GET /v1/jobs/{id} body.
type jobView struct {
	ID     string    `json:"id"`
	Status jobStatus `json:"status"`
	// Combinations is the job's total (program, input, config) count;
	// Done and Canceled advance toward it while the job runs.
	Combinations int64  `json:"combinations"`
	Done         int64  `json:"done"`
	Canceled     int64  `json:"canceled,omitempty"`
	Error        string `json:"error,omitempty"`
	// Result is the job's payload once it is done (frontier jobs: the
	// frontier summary; attribution jobs: the attribution rows, both
	// re-served byte for byte by a coordinator; sweep jobs carry none —
	// their results land in the measurement cache and are read via
	// /v1/results).
	Result any `json:"result,omitempty"`
	// Shards lists a coordinator job's shards, with the worker running
	// each (absent on worker and standalone jobs).
	Shards []shardView `json:"shards,omitempty"`
}

// jobProgress reports a job's (done, canceled) combination counts. In the
// default (delta) mode the values are cumulative process-wide counters; the
// job records them when it starts running and reports the delta — jobs
// execute strictly one at a time, which is what makes the delta attribution
// exact. In absolute mode (jobSpec.absolute) the values are already scoped
// to the job (the coordinator aggregates its shards' progress), so they are
// reported as-is.
type jobProgress func() (done, canceled int64)

// jobSpec describes a job for jobRegistry.start/runSync.
type jobSpec struct {
	// id names the job; empty means an auto-assigned "job-N". A fan-out
	// sub-job uses its coordinator-assigned "parent/shard-N" id — the slash
	// keeps the two namespaces disjoint. Re-registering an id replaces the
	// old entry (a re-dispatched shard supersedes the dead worker's run).
	id string
	// combos is the job's total combination count.
	combos int
	// progress supplies the Done/Canceled counts (see jobProgress).
	progress jobProgress
	// absolute marks progress as job-scoped rather than cumulative.
	absolute bool
	// decorate, when set, post-processes each view (the coordinator
	// attaches its shard table).
	decorate func(*jobView)
	// run is the job's work; its ctx is canceled by shutdown and by
	// DELETE /v1/jobs/{id}, and its id is the job's final id.
	run func(ctx context.Context, id string) (any, error)
}

// job is one sweep, frontier, attribution or shard run, asynchronous or
// inline (runSync). Progress is derived from
// the runner's counters in the observability registry through the job's
// jobProgress source.
type job struct {
	id     string
	cancel context.CancelFunc

	mu        sync.Mutex
	status    jobStatus
	combos    int64
	err       string
	absolute  bool
	startDone int64
	startCanc int64
	finalDone int64
	finalCanc int64
	result    any
	done      chan struct{} // closed when the job reaches a terminal state
	progress  jobProgress
	decorate  func(*jobView)
}

// view snapshots the job for JSON.
func (j *job) view() jobView {
	j.mu.Lock()
	v := jobView{ID: j.id, Status: j.status, Combinations: j.combos, Error: j.err, Result: j.result}
	switch j.status {
	case jobQueued:
		// No progress yet.
	case jobRunning:
		done, canc := j.progress()
		v.Done = done - j.startDone
		v.Canceled = canc - j.startCanc
	default:
		v.Done = j.finalDone
		v.Canceled = j.finalCanc
	}
	decorate := j.decorate
	j.mu.Unlock()
	if decorate != nil {
		decorate(&v)
	}
	return v
}

// jobRegistry tracks jobs of every kind and serializes their execution.
type jobRegistry struct {
	mu   sync.Mutex
	jobs map[string]*job
	next int

	// execMu is the single job executor: one job's work at a time, which
	// keeps each job's counter-delta progress exact.
	execMu sync.Mutex

	sweepDone *obs.Counter
	sweepCanc *obs.Counter
	started   *obs.Counter
	finished  *obs.Counter
}

// newJobRegistry builds the registry against the runner's registry (the
// sweep counters must be the same handles MeasureList increments).
func newJobRegistry(reg *obs.Registry) *jobRegistry {
	return &jobRegistry{
		jobs:      make(map[string]*job),
		sweepDone: reg.Counter("sweep_jobs_done"),
		sweepCanc: reg.Counter("sweep_jobs_canceled"),
		started:   reg.Counter("sweep_api_jobs_started_total"),
		finished:  reg.Counter("sweep_api_jobs_finished_total"),
	}
}

// sweepProgress is the progress source for sweep jobs (MeasureList).
func (r *jobRegistry) sweepProgress() (int64, int64) {
	return r.sweepDone.Value(), r.sweepCanc.Value()
}

// register creates the job entry and its cancelable context.
func (r *jobRegistry) register(parent context.Context, sp jobSpec) (*job, context.Context) {
	ctx, cancel := context.WithCancel(parent)
	r.mu.Lock()
	id := sp.id
	if id == "" {
		r.next++
		id = fmt.Sprintf("job-%d", r.next)
	}
	j := &job{
		id:       id,
		cancel:   cancel,
		status:   jobQueued,
		combos:   int64(sp.combos),
		absolute: sp.absolute,
		done:     make(chan struct{}),
		progress: sp.progress,
		decorate: sp.decorate,
	}
	r.jobs[id] = j
	r.mu.Unlock()
	r.started.Inc()
	return j, ctx
}

// execute runs the job body under the single executor; it is the shared
// engine of start (async) and runSync (inline).
func (r *jobRegistry) execute(ctx context.Context, j *job, sp jobSpec) (any, error) {
	r.execMu.Lock()
	defer r.execMu.Unlock()
	defer j.cancel()
	// A shutdown (or cancel) while queued cancels without running anything.
	if err := ctx.Err(); err != nil {
		j.finish(jobCanceled, err, nil, 0, 0)
		r.finished.Inc()
		return nil, err
	}
	j.mu.Lock()
	j.status = jobRunning
	if !j.absolute {
		j.startDone, j.startCanc = sp.progress()
	}
	startDone, startCanc := j.startDone, j.startCanc
	j.mu.Unlock()

	result, err := sp.run(ctx, j.id)
	done, canc := sp.progress()
	doneDelta := done - startDone
	cancDelta := canc - startCanc
	switch {
	case err == nil:
		// A finished job has settled every combination, whatever its
		// progress source counted (a frontier's replay counter skips the
		// points the sensor cannot measure), so every role reports
		// done == combinations.
		j.finish(jobDone, nil, result, int64(sp.combos), cancDelta)
	case ctx.Err() != nil:
		j.finish(jobCanceled, err, nil, doneDelta, cancDelta)
	default:
		j.finish(jobFailed, err, nil, doneDelta, cancDelta)
	}
	r.finished.Inc()
	return result, err
}

// start registers a job and launches its executor goroutine. ctx is the
// server's base context, so client disconnects never abort a job — only
// shutdown or an explicit cancel does.
func (r *jobRegistry) start(ctx context.Context, sp jobSpec) *job {
	j, jobCtx := r.register(ctx, sp)
	go r.execute(jobCtx, j, sp)
	return j
}

// runSync registers a job and executes it inline on the caller, still
// serialized on the single executor. Workers run coordinator-dispatched
// shards this way: the request blocks for the shard's duration, the
// caller's ctx aborts the work if the coordinator gives up or dies, and the
// job stays visible (and cancelable) under its fan-out id while it runs.
func (r *jobRegistry) runSync(ctx context.Context, sp jobSpec) (*job, any, error) {
	j, jobCtx := r.register(ctx, sp)
	result, err := r.execute(jobCtx, j, sp)
	return j, result, err
}

// finish moves the job to a terminal state, freezing its progress.
func (j *job) finish(status jobStatus, err error, result any, done, canceled int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = status
	if err != nil {
		j.err = err.Error()
	}
	j.result = result
	j.finalDone = done
	j.finalCanc = canceled
	close(j.done)
}

// get looks a job up by id.
func (r *jobRegistry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// cancelJob cancels a job's context. Queued jobs finish canceled without
// running; running jobs abort at the next cancellation point. Terminal jobs
// are unaffected (cancel is a no-op once the context is spent).
func (r *jobRegistry) cancelJob(id string) (*job, bool) {
	j, ok := r.get(id)
	if !ok {
		return nil, false
	}
	j.cancel()
	return j, true
}

// wait blocks until the job reaches a terminal state (tests).
func (j *job) wait() { <-j.done }
