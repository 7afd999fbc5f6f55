package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/suites"
)

// fleetWorkers is the fleet's worker count; each worker simulates on one
// core (Runner.Workers = 1), so the fleet uses the two cores the benchmark
// is sized for.
const fleetWorkers = 2

// pollEvery is the client's job-polling interval.
const pollEvery = 10 * time.Millisecond

// spanHeader carries the client span id of a request, so the server-side
// span of the request names its cause.
const spanHeader = "X-Bench-Span"

// fleet is a coordinator and its workers serving in this process on fixed
// loopback ports: the coordinator on portBase, worker i on portBase+i. Fixed
// ports give the consistent-hash ring the same member names, and so the same
// shard placement, in every run. A port that cannot be bound fails the run;
// there is no fallback to another port.
type fleet struct {
	coordinator *core.Runner
	workers     []*core.Runner
	servers     []*http.Server
	served      []chan error
	client      *apiClient
	log         *httpLog
}

// startFleet binds the fleet's ports and starts its servers. The workers
// broker launch traces through the coordinator. rd is the round the fleet
// serves (nil during set-up); its spans record every request.
func startFleet(portBase int, grid []kepler.Clocks, rd *round) (*fleet, error) {
	var lns []net.Listener
	closeAll := func() {
		for _, ln := range lns {
			ln.Close()
		}
	}
	for i := 0; i <= fleetWorkers; i++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", portBase+i))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("fleet: binding port %d: %w", portBase+i, err)
		}
		lns = append(lns, ln)
	}
	base := func(i int) string { return "http://" + lns[i].Addr().String() }
	quiet := log.New(io.Discard, "", 0)

	f := &fleet{log: &httpLog{}}
	if rd != nil {
		f.log.spans, f.log.round = rd.spans, rd.index
	}
	handlers := make([]http.Handler, len(lns))
	var peers []string
	for i := 1; i <= fleetWorkers; i++ {
		r := core.NewRunner()
		r.Workers = 1
		r.Broker = serve.NewHTTPTraceBroker(base(0), r.Metrics())
		srv, err := serve.New(serve.Config{Runner: r, Programs: suites.All(), Configs: grid, Log: quiet})
		if err != nil {
			closeAll()
			return nil, err
		}
		f.workers = append(f.workers, r)
		handlers[i] = f.log.wrap(fmt.Sprintf("worker%d", i), srv.Handler())
		peers = append(peers, base(i))
	}
	f.coordinator = core.NewRunner()
	c, err := serve.NewCoordinator(serve.CoordinatorConfig{
		Runner: f.coordinator, Programs: suites.All(), Configs: grid, Peers: peers, Log: quiet,
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	handlers[0] = f.log.wrap("coordinator", c.Handler())

	for i, ln := range lns {
		hs := &http.Server{Handler: handlers[i], ErrorLog: quiet}
		done := make(chan error, 1)
		go func(ln net.Listener) { done <- hs.Serve(ln) }(ln)
		f.servers = append(f.servers, hs)
		f.served = append(f.served, done)
	}
	f.client = &apiClient{base: base(0), hc: &http.Client{Transport: &http.Transport{}}, rd: rd}
	return f, nil
}

// stop shuts every server down and waits until each has returned.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for i, hs := range f.servers {
		if err := hs.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		if err := <-f.served[i]; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	f.client.hc.CloseIdleConnections()
	// The servers' own clients (shard dispatch, trace broker) use the
	// default transport: drop its connections to the closed ports, so the
	// next fleet on the same ports starts on fresh ones.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}

// httpLog is the benchmark's middleware around each server's handler: it
// times each request, counts its response bytes and, in a traced round,
// records a span per request.
type httpLog struct {
	spans *spanLog
	round int

	mu   sync.Mutex
	reqs []httpReq
}

type httpReq struct {
	server, method, path string
	dur                  time.Duration
	bytes                int64
}

func (l *httpLog) wrap(server string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := l.spans.begin(server+" "+r.Method+" "+r.URL.Path, "http", l.round, r.Header.Get(spanHeader))
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(t0)
		sp.end()
		l.mu.Lock()
		l.reqs = append(l.reqs, httpReq{server, r.Method, r.URL.Path, d, cw.n})
		l.mu.Unlock()
	})
}

// matching returns the durations (ms) and total response bytes of the
// requests with the given method whose server and path have the prefixes.
func (l *httpLog) matching(server, method, path string) (ms []float64, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, q := range l.reqs {
		if strings.HasPrefix(q.server, server) && q.method == method && strings.HasPrefix(q.path, path) {
			ms = append(ms, float64(q.dur.Nanoseconds())/1e6)
			bytes += q.bytes
		}
	}
	return ms, bytes
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// apiClient is the benchmark's client of the public HTTP API: one request
// at a time, so at most one connection.
type apiClient struct {
	base string
	hc   *http.Client
	rd   *round // for client-side spans; nil during set-up
}

// do sends one request and returns the body of a 2xx response.
func (c *apiClient) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var sp *span
	if c.rd != nil {
		sp = c.rd.call("client "+method+" "+path, "client")
	}
	if sp != nil {
		req.Header.Set(spanHeader, sp.id())
	}
	defer sp.end()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Shards []struct {
		Worker       string `json:"worker"`
		Combinations int64  `json:"combinations"`
	} `json:"shards"`
}

// sweep posts a sweep and polls its job until it ends, returning the final
// job view and the number of polls.
func (c *apiClient) sweep(ctx context.Context, body []byte) (jobView, int, error) {
	var v jobView
	data, err := c.do(ctx, http.MethodPost, "/v1/sweep", body)
	if err != nil {
		return v, 0, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, 0, fmt.Errorf("sweep response: %w", err)
	}
	polls := 0
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for v.Status == "queued" || v.Status == "running" {
		select {
		case <-ctx.Done():
			return v, polls, ctx.Err()
		case <-tick.C:
		}
		polls++
		data, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID, nil)
		if err != nil {
			return v, polls, err
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return v, polls, fmt.Errorf("job view: %w", err)
		}
	}
	return v, polls, nil
}

// sweepBody is the POST /v1/sweep body for programs × configs.
func sweepBody(progs []core.Program, configs []kepler.Clocks) []byte {
	req := struct {
		Programs []string `json:"programs"`
		Configs  []string `json:"configs"`
	}{}
	for _, p := range progs {
		req.Programs = append(req.Programs, p.Name())
	}
	for _, c := range configs {
		req.Configs = append(req.Configs, c.Name)
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(err) // two string slices always marshal
	}
	return data
}

// tracePath is the trace store's path for a program's default-input trace.
func tracePath(p core.Program) string {
	return "/v1/traces/" + url.PathEscape(k20c().Name) + "/" + url.PathEscape(p.Name()) + "/" + url.PathEscape(p.DefaultInput())
}

// handlerTransport serves requests in-process from a handler, so the
// standalone reference server is driven by the same client as the fleet.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// --- fleet_sweep ---

// fleetState is the fleet workload's set-up: the INS20 launch traces the
// set-up fleet captured and served back, encoded.
type fleetState struct {
	portBase int
	progs    []core.Program
	grid     []kepler.Clocks
	body     []byte            // the timed sweep: every program × the grid
	traces   map[string][]byte // encoded traces by program
	captures int64             // fleet captures during set-up
	want     []byte            // reference GET /v1/results body, made on first use
}

// setupFleet starts a fleet, sweeps the programs at the default
// configuration (each worker captures what the ring gives it and publishes
// the traces to the coordinator), downloads the traces and stops the fleet.
func setupFleet(ctx context.Context, o *options) (state, error) {
	progs, err := programs(o, ins20)
	if err != nil {
		return nil, err
	}
	grid, err := denseGrid()
	if err != nil {
		return nil, err
	}
	s := &fleetState{
		portBase: o.portBase,
		progs:    progs,
		grid:     grid,
		body:     sweepBody(progs, grid),
		traces:   make(map[string][]byte),
	}
	f, err := startFleet(o.portBase, grid, nil)
	if err != nil {
		return nil, err
	}
	err = s.capture(ctx, f)
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *fleetState) capture(ctx context.Context, f *fleet) error {
	v, _, err := f.client.sweep(ctx, sweepBody(s.progs, []kepler.Clocks{k20c().DefaultConfig()}))
	if err != nil {
		return err
	}
	if v.Status != "done" {
		return fmt.Errorf("capture sweep %s: %s", v.Status, v.Error)
	}
	for _, p := range s.progs {
		data, err := f.client.do(ctx, http.MethodGet, tracePath(p), nil)
		if err != nil {
			return err
		}
		tr, err := sim.DecodeTrace(data)
		if err != nil {
			return fmt.Errorf("trace of %s: %w", p.Name(), err)
		}
		if err := requireInsensitive(p, tr); err != nil {
			return err
		}
		s.traces[p.Name()] = data
	}
	for _, w := range f.workers {
		s.captures += w.Metrics().Snapshot().Counters["trace_cache_captures"]
	}
	return nil
}

// round starts a fresh fleet on the same ports, gives the coordinator the
// traces back (untimed), then times the sweep from POST to the last byte of
// GET /v1/results.
func (s *fleetState) round(ctx context.Context, rd *round) error {
	f, err := startFleet(s.portBase, s.grid, rd)
	if err != nil {
		return err
	}
	err = s.sweepRound(ctx, f, rd)
	if serr := f.stop(); err == nil {
		err = serr
	}
	return err
}

func (s *fleetState) sweepRound(ctx context.Context, f *fleet, rd *round) error {
	for _, p := range s.progs {
		if _, err := f.client.do(ctx, http.MethodPut, tracePath(p), s.traces[p.Name()]); err != nil {
			return err
		}
	}

	rd.start()
	v, polls, err := f.client.sweep(ctx, s.body)
	var results []byte
	var resultsTime time.Duration
	if err == nil && v.Status == "done" {
		t0 := time.Now()
		results, err = f.client.do(ctx, http.MethodGet, "/v1/results", nil)
		resultsTime = time.Since(t0)
	}
	rd.stop()

	rd.attempted = len(s.progs) * len(s.grid)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if err != nil || v.Status != "done" {
		rd.failed = rd.attempted
		return nil
	}
	want, err := s.reference(ctx)
	if err != nil {
		return err
	}
	rd.wrong = resultMismatches(want, results)

	if rd.traced {
		var snaps []obs.Snapshot
		for _, w := range f.workers {
			snaps = append(snaps, w.Metrics().Snapshot())
		}
		addRunnerLayers(rd.layers, snaps...)
		coord := f.coordinator.Metrics().Snapshot()
		rd.layers["serve.shards"] = float64(coord.Counters["fabric_shards_dispatched"])
		rd.layers["serve.redispatches"] = float64(coord.Counters["fabric_shard_redispatches"])
		shardMS, _ := f.log.matching("worker", http.MethodPost, "/v1/shard")
		rd.layers["serve.shard_ms.p50"] = median(shardMS)
		if len(shardMS) > 0 {
			rd.layers["serve.shard_ms.max"] = slices.Max(shardMS)
		}
		getMS, getBytes := f.log.matching("coordinator", http.MethodGet, "/v1/traces/")
		rd.layers["serve.trace_gets"] = float64(len(getMS))
		rd.layers["serve.trace_get_ms.p50"] = median(getMS)
		rd.layers["serve.trace_bytes"] = float64(getBytes)
		rd.layers["serve.job_polls"] = float64(polls)
		rd.layers["serve.results_ms"] = float64(resultsTime.Nanoseconds()) / 1e6
		rd.layers["serve.results_bytes"] = float64(len(results))
		rd.layers["serve.capture_useful_ratio"] = float64(len(s.progs)) / float64(s.captures)
		if rd.first {
			traces, err := s.decodeTraces()
			if err != nil {
				return err
			}
			rd.layers["sim.replay_us"] = replayMicros(traces, s.grid)
		}
	}
	return nil
}

func (s *fleetState) decodeTraces() ([]*sim.LaunchTrace, error) {
	var out []*sim.LaunchTrace
	for _, p := range s.progs {
		tr, err := sim.DecodeTrace(s.traces[p.Name()])
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}

// reference is GET /v1/results of a standalone server that swept the same
// body in-process, fed the same traces through an in-memory broker.
func (s *fleetState) reference(ctx context.Context) ([]byte, error) {
	if s.want != nil {
		return s.want, nil
	}
	traces, err := s.decodeTraces()
	if err != nil {
		return nil, err
	}
	b := newMemBroker()
	for i, p := range s.progs {
		b.StoreTrace(k20c().Name, p.Name(), p.DefaultInput(), traces[i])
	}
	r := core.NewRunner()
	r.Broker = b
	srv, err := serve.New(serve.Config{Runner: r, Programs: suites.All(), Configs: s.grid, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		return nil, err
	}
	c := &apiClient{base: "http://standalone", hc: &http.Client{Transport: handlerTransport{srv.Handler()}}}
	v, _, err := c.sweep(ctx, s.body)
	if err != nil {
		return nil, err
	}
	if v.Status != "done" {
		return nil, fmt.Errorf("standalone sweep %s: %s", v.Status, v.Error)
	}
	s.want, err = c.do(ctx, http.MethodGet, "/v1/results", nil)
	return s.want, err
}
