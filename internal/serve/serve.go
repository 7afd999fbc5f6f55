// Package serve is the gpuchard measurement service: an HTTP JSON API
// wrapping a shared core.Runner so that many clients can request
// measurements, run asynchronous sweeps and read results from one
// long-running process instead of a one-shot CLI.
//
// The service inherits the Runner's guarantees wholesale:
//
//   - Coalescing. Concurrent identical measure requests share one
//     computation through the Runner's singleflight cache entries — N
//     clients asking for the same (program, input, config) cost exactly one
//     simulation and receive byte-identical responses.
//   - Bounded concurrency. Every in-flight measurement holds one slot of
//     the Runner's shared sim.WorkerPool (like MeasureAll jobs do), so HTTP
//     traffic, sweeps and per-launch block sharding never oversubscribe the
//     machine.
//   - Durability is the Runner's: a core.DirBroker Broker keeps each launch
//     trace, and a restarted server replays them with zero captures. Its
//     cache starts empty, so GET /v1/results lists what it has measured.
//   - Graceful drain. On shutdown the listener closes first, in-flight
//     requests get DrainTimeout to finish, then the base context is
//     canceled so the remaining simulations abort at the next thread-block
//     boundary and the handlers return the context error.
//
// One Server type plays every role. Each handler decodes and validates its
// request, then hands the validated work to an executor: the local
// executor runs it on the Server's own Runner (the standalone and worker
// roles), the fleet executor spreads it over the workers named in
// Config.Peers (the coordinator role; see coordinator.go). Both executors
// therefore reject a bad request with the same status and bytes.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/kepler"
	"repro/internal/obs"
	"repro/internal/promtext"
)

// Config configures a Server.
type Config struct {
	// Runner executes and caches the measurements. Required.
	Runner *core.Runner
	// Programs is the served program set, addressed by Program.Name().
	// Required (typically suites.All()).
	Programs []core.Program
	// Configs is the served clock-configuration set. Defaults to
	// kepler.Configs.
	Configs []kepler.Clocks
	// RequestTimeout bounds each measure request's measurement context.
	// 0 means no per-request deadline.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain on shutdown: after it, the
	// base context is canceled and in-flight simulations abort. 0 waits
	// for in-flight requests indefinitely.
	DrainTimeout time.Duration
	// Log receives operational messages. Defaults to log.Default().
	Log *log.Logger
	// Peers lists worker base URLs (e.g. "http://w0:8080"). Non-empty
	// selects the fleet executor: the Server becomes a coordinator whose
	// members are the peers currently answering 200 on GET /readyz, and its
	// Runner only holds the merged results. Programs and Configs must then
	// match the workers'.
	Peers []string
	// HealthEvery bounds the fleet's membership staleness: a member set
	// older than this is re-probed before the next placement decision.
	// Defaults to 5s; unused without Peers.
	HealthEvery time.Duration
}

// CoordinatorConfig is the Config of a coordinator (a Server with Peers).
type CoordinatorConfig = Config

// Server is the HTTP measurement service. The standalone process, the
// fleet's worker (which also accepts coordinator-dispatched /v1/shard
// sub-jobs and may share launch traces through the Runner's Broker) and the
// fleet's coordinator are all a Server; only the executor differs.
type Server struct {
	cfg     Config
	runner  *core.Runner
	res     *resolver
	jobs    *jobRegistry
	exec    executor
	handler http.Handler

	// baseCtx parents every request's measurement context; cancelBase
	// aborts all in-flight simulations (the hard-stop half of the drain).
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// ready is the /readyz verdict: true once the worker pool is sized,
	// false again the moment a drain starts — before the
	// HTTP shutdown — so a coordinator probing readiness drops the worker
	// from membership and starts re-dispatching early.
	ready atomic.Bool

	m serviceMetrics
}

// serviceMetrics are the service-level handles in the runner's registry,
// alongside the pipeline metrics the Runner already records. The per-route
// handles are created as the routes are instrumented, so each executor
// exposes exactly the routes it serves.
type serviceMetrics struct {
	reg          *obs.Registry
	inflight     *obs.Gauge
	responses2xx *obs.Counter
	responses4xx *obs.Counter
	responses5xx *obs.Counter
}

// newServiceMetrics resolves the HTTP-level handles.
func newServiceMetrics(reg *obs.Registry) serviceMetrics {
	return serviceMetrics{
		reg:          reg,
		inflight:     reg.Gauge("http_inflight_requests"),
		responses2xx: reg.Counter("http_responses_2xx_total"),
		responses4xx: reg.Counter("http_responses_4xx_total"),
		responses5xx: reg.Counter("http_responses_5xx_total"),
	}
}

// executor runs the work of validated requests: locally on the Server's
// Runner, or across the fleet in Config.Peers.
type executor interface {
	// measure answers one measure request.
	measure(ctx context.Context, w http.ResponseWriter, cb core.Combo)
	// sweep returns the job that measures combos. An error means the work
	// cannot be placed now (503).
	sweep(ctx context.Context, dev *kepler.Device, combos []core.Combo) (jobSpec, error)
	// frontier returns the job that prices a frontier grid.
	frontier(fw frontierWork) jobSpec
	// attrib returns the job that attributes a (program, config) matrix.
	attrib(aw attribWork) jobSpec
	// metrics returns the /metrics exposition.
	metrics(ctx context.Context) ([]promtext.Family, error)
	// workers is the ready-worker count /readyz reports (0 when local).
	workers(ctx context.Context) int
}

// New builds the service. A non-empty cfg.Peers makes the Server a
// coordinator (the fleet executor); otherwise it simulates locally.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, errors.New("serve: Config.Runner is required")
	}
	if len(cfg.Programs) == 0 {
		return nil, errors.New("serve: Config.Programs is required")
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	res, err := newResolver(cfg.Programs, cfg.Configs)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		runner: cfg.Runner,
		res:    res,
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())

	reg := s.runner.Metrics()
	s.m = newServiceMetrics(reg)
	s.jobs = newJobRegistry(reg)

	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, s.m.instrument(name, h))
	}
	route("POST /v1/measure", "measure", s.handleMeasure)
	route("POST /v1/sweep", "sweep", s.handleSweep)
	route("POST /v1/frontier", "frontier", s.handleFrontier)
	route("POST /v1/attrib", "attrib", s.handleAttrib)
	route("GET /v1/jobs/{id...}", "jobs", s.handleJob)
	route("DELETE /v1/jobs/{id...}", "jobs", s.handleJobCancel)
	route("GET /v1/results", "results", s.handleResults)
	route("GET /metrics", "metrics", s.handleMetrics)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /readyz", "readyz", s.handleReadyz)
	if len(cfg.Peers) > 0 {
		f := newFleet(cfg)
		s.exec = f
		route("GET /v1/traces/{key...}", "traces", f.handleTraceGet)
		route("PUT /v1/traces/{key...}", "traces", f.handleTracePut)
	} else {
		s.exec = &local{runner: s.runner, jobs: s.jobs}
		route("POST /v1/shard", "shard", s.handleShard)
		// Size the worker pool up front so readiness means "can simulate
		// now", not "will size a pool on the first request".
		s.runner.WorkerPool()
	}
	s.handler = mux
	s.ready.Store(true)
	return s, nil
}

// NewCoordinator is New for the coordinator role: it refuses an empty
// Peers rather than quietly starting a standalone server.
func NewCoordinator(cfg Config) (*Server, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("serve: a coordinator needs Config.Peers: at least one worker URL")
	}
	return New(cfg)
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// instrument wraps a handler with the per-route request counter, latency
// histogram, in-flight gauge and response-class counters.
func (m *serviceMetrics) instrument(route string, h http.HandlerFunc) http.Handler {
	reqs := m.reg.Counter("http_" + route + "_requests_total")
	lat := m.reg.Histogram("http_" + route + "_seconds")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		reqs.Inc()
		m.inflight.Add(1)
		defer m.inflight.Add(-1)
		defer lat.Since(t0)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		switch {
		case sw.status >= 500:
			m.responses5xx.Inc()
		case sw.status >= 400:
			m.responses4xx.Inc()
		default:
			m.responses2xx.Inc()
		}
	})
}

// statusWriter captures the response status for the class counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Serve runs the service on ln until ctx is canceled, then drains: /readyz
// flips to 503 (a coordinator probing membership drops the worker and
// starts re-dispatching its shards before the listener even closes), the
// listener closes, in-flight requests get DrainTimeout to finish, and
// remaining work is aborted via the base context. It returns nil after a
// clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{
		Handler:     s.handler,
		BaseContext: func(net.Listener) context.Context { return s.baseCtx },
		ErrorLog:    s.cfg.Log,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	var err error
	select {
	case err = <-serveErr:
		// Listener failure: not a drain.
	case <-ctx.Done():
		s.ready.Store(false)
		drainCtx := context.Background()
		if s.cfg.DrainTimeout > 0 {
			var cancel context.CancelFunc
			drainCtx, cancel = context.WithTimeout(drainCtx, s.cfg.DrainTimeout)
			defer cancel()
		}
		// When the drain deadline passes, cancel the base context so
		// in-flight simulations abort at the next thread-block boundary
		// and their handlers return promptly with the context error.
		stopAbort := context.AfterFunc(drainCtx, s.cancelBase)
		err = httpSrv.Shutdown(drainCtx)
		stopAbort()
		if errors.Is(err, context.DeadlineExceeded) {
			err = nil // a forced drain is still an orderly shutdown
		}
	}
	s.cancelBase()
	return err
}

// measureRequest is the POST /v1/measure body.
type measureRequest struct {
	Program string `json:"program"`
	// Input defaults to the program's default input when empty.
	Input string `json:"input,omitempty"`
	// Config defaults to "default" when empty.
	Config string `json:"config,omitempty"`
	// Device selects the GPU profile (kepler.Devices); empty means the K20c.
	Device string `json:"device,omitempty"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
	// Insufficient marks the paper's exclusion criterion (422): the run
	// completed but yielded too few power samples to analyze.
	Insufficient bool `json:"insufficient,omitempty"`
}

// handleMeasure measures one (program, input, config) combination. Repeated
// and concurrent identical requests are served from the runner cache: the
// first request simulates, everyone else coalesces onto that computation.
func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req measureRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, clk, input, err := s.res.resolve(req.Program, req.Input, req.Config, req.Device)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	s.exec.measure(ctx, w, core.Combo{Program: p, Input: input, Clocks: clk})
}

// writeMeasure answers a measure request from runner.Measure with the
// core.Result: a cache hit returns at once, a miss simulates.
func writeMeasure(ctx context.Context, w http.ResponseWriter, runner *core.Runner, cb core.Combo) {
	res, err := runner.Measure(ctx, cb.Program, cb.Input, cb.Clocks)
	if err != nil {
		writeMeasureError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// writeMeasureError maps a measurement failure to its status code:
// insufficient samples (the paper's exclusion) → 422, request deadline →
// 504, cancellation (client gone or server draining) → 503, anything else
// (a genuine pipeline failure) → 500.
func writeMeasureError(w http.ResponseWriter, err error) {
	switch {
	case core.IsInsufficient(err):
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error(), Insufficient: true})
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// sweepRequest is the POST /v1/sweep body.
type sweepRequest struct {
	// Programs restricts the sweep; empty means every served program.
	Programs []string `json:"programs,omitempty"`
	// Configs restricts the configurations; empty means all of them.
	Configs []string `json:"configs,omitempty"`
	// AllInputs sweeps every input of each program, not just the default.
	AllInputs bool `json:"allInputs,omitempty"`
	// Device selects the GPU profile; empty means the K20c. On a non-K20c
	// device, Configs resolve against that device's DVFS ladder and an empty
	// Configs means its four canonical configurations.
	Device string `json:"device,omitempty"`
}

// handleSweep starts an asynchronous sweep job and returns its id. Jobs
// execute one at a time (sweeps are heavyweight; queueing keeps the
// per-job progress counters exact) on the server's base context, so a
// client disconnect does not abort a running sweep — only shutdown does.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	programs, dev, configs, err := s.res.sweepSet(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, err := s.exec.sweep(r.Context(), dev, core.EnumerateCombos(programs, configs, req.AllInputs))
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.startJob(w, spec)
}

// startJob starts an asynchronous job and answers 202 with its view.
func (s *Server) startJob(w http.ResponseWriter, spec jobSpec) {
	writeJSON(w, http.StatusAccepted, s.jobs.start(s.baseCtx, spec).view())
}

// frontierRequest is the POST /v1/frontier body.
type frontierRequest struct {
	Program string `json:"program"`
	// Input defaults to the program's default input when empty.
	Input string `json:"input,omitempty"`
	// Spec overrides the dense DVFS grid; nil uses the device's default grid.
	Spec *kepler.GridSpec `json:"spec,omitempty"`
	// Device selects the GPU profile whose ladder is gridded; empty means
	// the K20c.
	Device string `json:"device,omitempty"`
}

// frontierPointView is one grid configuration in the frontier summary.
type frontierPointView struct {
	Config  string  `json:"config"`
	CoreMHz int     `json:"coreMHz"`
	MemMHz  int     `json:"memMHz"`
	Time    float64 `json:"time"`
	Energy  float64 `json:"energy"`
	Power   float64 `json:"power"`
	EDP     float64 `json:"edp"`
	ED2P    float64 `json:"ed2p"`
}

// frontierSummary is the frontier job's result payload.
type frontierSummary struct {
	Program     string `json:"program"`
	Input       string `json:"input"`
	GridConfigs int    `json:"gridConfigs"`
	Measurable  int    `json:"measurable"`

	Default *frontierPointView `json:"default,omitempty"`
	EDP     *frontierPointView `json:"edpSweetSpot,omitempty"`
	ED2P    *frontierPointView `json:"ed2pSweetSpot,omitempty"`
	// Pareto lists the non-dominated configurations by ascending runtime.
	Pareto []string `json:"pareto"`

	Optimizer struct {
		Best   string `json:"best,omitempty"`
		Evals  int    `json:"evals"`
		Budget int    `json:"budget"`
	} `json:"optimizer"`
}

func frontierPoint(res *frontier.Result, idx int) *frontierPointView {
	if idx < 0 {
		return nil
	}
	pt := &res.Points[idx]
	return &frontierPointView{
		Config: pt.Config.Name, CoreMHz: pt.Config.CoreMHz, MemMHz: pt.Config.MemMHz,
		Time: pt.Time, Energy: pt.Energy, Power: pt.Power,
		EDP: pt.EDP, ED2P: pt.ED2P,
	}
}

func summarizeFrontier(res *frontier.Result) *frontierSummary {
	sum := &frontierSummary{
		Program:     res.Program,
		Input:       res.Input,
		GridConfigs: len(res.Points),
		Default:     frontierPoint(res, res.DefaultIdx),
		EDP:         frontierPoint(res, res.EDPIdx),
		ED2P:        frontierPoint(res, res.ED2PIdx),
		Pareto:      make([]string, 0, len(res.Pareto)),
	}
	for i := range res.Points {
		if res.Points[i].Measurable {
			sum.Measurable++
		}
	}
	for _, idx := range res.Pareto {
		sum.Pareto = append(sum.Pareto, res.Points[idx].Config.Name)
	}
	if res.Opt.BestIdx >= 0 {
		sum.Optimizer.Best = res.Points[res.Opt.BestIdx].Config.Name
	}
	sum.Optimizer.Evals = res.Opt.Evals
	sum.Optimizer.Budget = res.Opt.Budget
	return sum
}

// frontierWork is a validated frontier request: the canonical request
// (every name resolved, the spec as given) and what it resolved to.
type frontierWork struct {
	req  frontierRequest
	p    core.Program
	dev  *kepler.Device
	spec kepler.GridSpec
	size int // grid configurations
}

// handleFrontier starts an asynchronous dense-grid frontier job for one
// program. The completed job's view carries the frontier summary.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	var req frontierRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	fw, status, err := s.res.frontier(req)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	s.startJob(w, s.exec.frontier(fw))
}

// frontier validates a frontier request, for the public handler and for a
// worker's frontier shard alike. Validation mirrors the rest of the API —
// unknown names are 400; a structurally valid but physically impossible
// grid spec (inverted bounds, zero step, oversized grid) is 422, the same
// class as the paper's unprocessable-measurement responses. A rejection
// returns the status to answer with.
func (res *resolver) frontier(req frontierRequest) (frontierWork, int, error) {
	p, ok := res.programs[req.Program]
	if !ok {
		return frontierWork{}, http.StatusBadRequest, fmt.Errorf("unknown program %q", req.Program)
	}
	input := req.Input
	if input == "" {
		input = p.DefaultInput()
	} else if _, _, _, err := res.resolve(req.Program, input, "", req.Device); err != nil {
		return frontierWork{}, http.StatusBadRequest, err
	}
	dev, err := res.resolveDevice(req.Device)
	if err != nil {
		return frontierWork{}, http.StatusBadRequest, err
	}
	spec := dev.DefaultGrid()
	if req.Spec != nil {
		spec = *req.Spec
	}
	grid, err := dev.Grid(spec)
	if err != nil {
		return frontierWork{}, http.StatusUnprocessableEntity, err
	}
	return frontierWork{
		req:  frontierRequest{Program: p.Name(), Input: input, Spec: req.Spec, Device: dev.Name},
		p:    p,
		dev:  dev,
		spec: spec,
		size: len(grid),
	}, 0, nil
}

// handleJob reports a job's status, progress and (once done) result.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleJobCancel cancels a queued or running job: DELETE /v1/jobs/{id}.
// The response is the job's view right after the cancel was requested; the
// job reaches its terminal state asynchronously (poll GET to observe it).
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.cancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// resultsResponse is the GET /v1/results body: the runner's resolved
// results, straight from the cache.
type resultsResponse struct {
	Version int           `json:"version"`
	Count   int           `json:"count"`
	Results []core.Result `json:"results"`
}

// handleResults dumps every resolved measurement (and exclusion) the
// runner's cache currently holds.
func (s *Server) handleResults(w http.ResponseWriter, _ *http.Request) {
	results := s.runner.Results()
	writeJSON(w, http.StatusOK, resultsResponse{
		Version: core.StoreVersion,
		Count:   len(results),
		Results: results,
	})
}

// handleMetrics serves the observability registry in the Prometheus text
// exposition format 0.0.4: pipeline stage timings as cumulative
// histograms, cache/trace/broker counters, pool gauges and HTTP metrics (a
// coordinator federates its workers' expositions into the same document).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fams, err := s.exec.metrics(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", promtext.ContentType)
	if err := promtext.Write(w, fams); err != nil {
		s.cfg.Log.Printf("serve: writing metrics: %v", err)
	}
}

// healthzResponse is the GET /healthz body.
type healthzResponse struct {
	Status   string `json:"status"`
	Resolved int    `json:"resolvedEntries"`
	Pending  int    `json:"pendingEntries"`
}

// handleHealthz reports liveness plus cache occupancy.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resolved, pending := s.runner.CacheCounts()
	writeJSON(w, http.StatusOK, healthzResponse{Status: "ok", Resolved: resolved, Pending: pending})
}

// readyzResponse is the GET /readyz body.
type readyzResponse struct {
	Status   string `json:"status"`
	Resolved int    `json:"resolvedEntries"`
	// Workers is the registered ready-worker count (coordinator role only).
	Workers int `json:"workers,omitempty"`
}

// handleReadyz reports readiness: the worker pool is sized (done by New),
// and no drain has started. Coordinators use it
// for membership, so a draining worker disappears from the ring before its
// listener closes; a coordinator's own answer counts its ready workers.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resolved, _ := s.runner.CacheCounts()
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Status: "draining", Resolved: resolved})
		return
	}
	writeJSON(w, http.StatusOK, readyzResponse{Status: "ready", Resolved: resolved, Workers: s.exec.workers(r.Context())})
}

// maxBodyBytes bounds request bodies; the API's requests are tiny.
const maxBodyBytes = 1 << 20

// decodeJSON strictly parses the request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing request body: %w", err)
	}
	return nil
}

// writeJSON writes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// writeError writes a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
