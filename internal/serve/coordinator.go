package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/obs"
	"repro/internal/promtext"
	"repro/internal/sim"
)

// fleet is the coordinator's executor: it speaks the same public API as a
// standalone Server but simulates nothing itself. Sweeps are consistent-
// hashed into per-worker shards over the internal /v1/shard API and merged
// in deterministic result order; a frontier or attribution job is one shard
// on its ring owner; measures proxy to the combination's owning worker;
// launch traces are brokered through an in-memory store so the fleet
// captures each (device, program, input) exactly once; and /metrics
// federates every worker's exposition under a "worker" label. The Server's
// Runner holds the merged results.
type fleet struct {
	runner      *core.Runner
	peers       []string
	healthEvery time.Duration
	log         *log.Logger
	m           fabricMetrics

	// client runs shard dispatches and other calls that last as long as the
	// work they carry — no timeout; cancellation comes from the job context.
	client *http.Client
	// probeClient runs the short probes (readyz, job views, metric scrapes).
	probeClient *http.Client

	memberMu    sync.Mutex
	members     []string
	lastRefresh time.Time

	traceMu sync.Mutex
	traces  map[string][]byte
}

// fabricMetrics are the coordinator-only handles in the registry.
type fabricMetrics struct {
	workersReady      *obs.Gauge
	sweepFanouts      *obs.Counter
	shardsDispatched  *obs.Counter
	shardRedispatches *obs.Counter
	frontierProxied   *obs.Counter
	attribProxied     *obs.Counter
	measureProxied    *obs.Counter
	traceStoreTraces  *obs.Gauge
	traceStoreBytes   *obs.Gauge
	traceStoreGets    *obs.Counter
	traceStoreHits    *obs.Counter
	traceStorePuts    *obs.Counter
}

func newFleet(cfg Config) *fleet {
	reg := cfg.Runner.Metrics()
	f := &fleet{
		runner:      cfg.Runner,
		peers:       cfg.Peers,
		healthEvery: cfg.HealthEvery,
		log:         cfg.Log,
		m: fabricMetrics{
			workersReady:      reg.Gauge("fabric_workers_ready"),
			sweepFanouts:      reg.Counter("fabric_sweep_fanouts"),
			shardsDispatched:  reg.Counter("fabric_shards_dispatched"),
			shardRedispatches: reg.Counter("fabric_shard_redispatches"),
			frontierProxied:   reg.Counter("fabric_frontier_proxied"),
			attribProxied:     reg.Counter("fabric_attrib_proxied"),
			measureProxied:    reg.Counter("fabric_measure_proxied"),
			traceStoreTraces:  reg.Gauge("trace_store_traces"),
			traceStoreBytes:   reg.Gauge("trace_store_bytes"),
			traceStoreGets:    reg.Counter("trace_store_gets"),
			traceStoreHits:    reg.Counter("trace_store_hits"),
			traceStorePuts:    reg.Counter("trace_store_puts"),
		},
		client:      &http.Client{},
		probeClient: &http.Client{Timeout: 2 * time.Second},
		traces:      make(map[string][]byte),
	}
	if f.healthEvery <= 0 {
		f.healthEvery = 5 * time.Second
	}
	return f
}

// --- membership ---

// refreshMembers probes every peer's /readyz concurrently and keeps the
// subset that answered 200. The member list is sorted so the ring is
// identical no matter which probe finished first.
func (f *fleet) refreshMembers(ctx context.Context) []string {
	type verdict struct {
		peer  string
		ready bool
	}
	verdicts := make(chan verdict, len(f.peers))
	for _, peer := range f.peers {
		go func(peer string) {
			ok := false
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
			if err == nil {
				resp, err := f.probeClient.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					ok = resp.StatusCode == http.StatusOK
				}
			}
			verdicts <- verdict{peer, ok}
		}(peer)
	}
	members := make([]string, 0, len(f.peers))
	for range f.peers {
		v := <-verdicts
		if v.ready {
			members = append(members, v.peer)
		}
	}
	sort.Strings(members)

	f.memberMu.Lock()
	f.members = members
	f.lastRefresh = time.Now()
	f.memberMu.Unlock()
	f.m.workersReady.Set(int64(len(members)))
	return members
}

// currentMembers returns the ready-worker set, re-probing when the cached
// set is stale or empty. Handler-triggered refresh (rather than a Serve
// goroutine) keeps httptest-embedded coordinators fully functional.
func (f *fleet) currentMembers(ctx context.Context) []string {
	f.memberMu.Lock()
	members := f.members
	fresh := time.Since(f.lastRefresh) < f.healthEvery && len(members) > 0
	f.memberMu.Unlock()
	if fresh {
		return members
	}
	return f.refreshMembers(ctx)
}

// workers counts the ready members for /readyz.
func (f *fleet) workers(ctx context.Context) int { return len(f.currentMembers(ctx)) }

// --- placement and retry ---

const (
	// ringMaxRounds bounds how many times a placement walks the full
	// (refreshed) member set before giving up.
	ringMaxRounds = 3
	// ringRetryDelay separates the rounds, giving crashed workers a moment
	// to restart or the membership probe a moment to notice replacements.
	ringRetryDelay = 250 * time.Millisecond
)

// errNoWorkers is the failure of a placement that found no ready worker.
var errNoWorkers = errors.New("no ready workers")

// retryErr marks a failure another worker may not repeat: the worker was
// unreachable, or answered 503 because it is draining.
type retryErr struct{ err error }

func (e retryErr) Error() string { return e.err.Error() }
func (e retryErr) Unwrap() error { return e.err }

// onRing runs try on the key's ring owner. A retryable failure moves on to
// the next untried candidate along the ring; once a round has tried every
// member, the membership is re-probed and the walk starts over, up to
// ringMaxRounds. Success, cancellation and any other failure (a verdict
// that re-running cannot change) end the walk at once.
func (f *fleet) onRing(ctx context.Context, key string, try func(worker string) error) error {
	members := f.currentMembers(ctx)
	lastErr := errNoWorkers
	for round := 1; ; round++ {
		tried := make(map[string]bool, len(members))
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			worker := pickWorker(key, members, tried)
			if worker == "" {
				break // round exhausted
			}
			tried[worker] = true
			err := try(worker)
			if err == nil || ctx.Err() != nil || !errors.As(err, new(retryErr)) {
				return err
			}
			lastErr = err
			f.m.shardRedispatches.Inc()
		}
		if round == ringMaxRounds {
			return fmt.Errorf("no worker completed it after %d rounds: %w", ringMaxRounds, lastErr)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(ringRetryDelay):
		}
		members = f.refreshMembers(ctx)
	}
}

// pickWorker chooses the untried member owning the key — the ring over the
// remaining candidates, so the fallback order is deterministic too.
func pickWorker(key string, members []string, tried map[string]bool) string {
	avail := make([]string, 0, len(members))
	for _, m := range members {
		if !tried[m] {
			avail = append(avail, m)
		}
	}
	if len(avail) == 0 {
		return ""
	}
	return newRing(avail).owner(key)
}

// post sends a JSON body to a worker. A transport failure or a 503 is a
// retryErr; any other answer returns its status and body.
func (f *fleet) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, retryErr{err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, retryErr{err}
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return 0, nil, retryErr{fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))}
	}
	return resp.StatusCode, data, nil
}

// cancelRemoteJob best-effort cancels a job on a worker.
func (f *fleet) cancelRemoteJob(worker, id string) {
	req, err := http.NewRequest(http.MethodDelete, worker+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	resp, err := f.probeClient.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// --- sweep fan-out ---

// shardState is one shard's live bookkeeping, shared between the dispatch
// goroutine (writes) and job views (reads).
type shardState struct {
	work shardRequest // the shard's work; its ID is filled in at dispatch
	size int64        // combinations the work resolves
	key  string       // ring key: a sweep shard's first combo, or the job's

	mu           sync.Mutex
	id           string // assigned when the parent job's run starts
	worker       string
	status       jobStatus
	lastDone     int64
	lastPoll     time.Time
	redispatches int64
}

// monotoneProgress wraps a done-count source in a high-water clamp, making
// the reported progress monotone non-decreasing even when an underlying
// counter legitimately resets (a re-dispatched shard starts over on its new
// worker). Safe for concurrent job-view calls.
func monotoneProgress(f func() int64) jobProgress {
	var mu sync.Mutex
	var hi int64
	return func() (int64, int64) {
		v := f()
		mu.Lock()
		if v < hi {
			v = hi
		} else {
			hi = v
		}
		mu.Unlock()
		return v, 0
	}
}

func (st *shardState) setWorker(w string) {
	st.mu.Lock()
	st.worker = w
	st.status = jobRunning
	st.lastDone = 0
	st.lastPoll = time.Time{}
	st.mu.Unlock()
}

func (st *shardState) setStatus(s jobStatus) {
	st.mu.Lock()
	st.status = s
	st.mu.Unlock()
}

func (st *shardState) bumpRedispatch() {
	st.mu.Lock()
	st.redispatches++
	st.mu.Unlock()
}

// progress reports the shard's completed-combination count, polling the
// owning worker's job view (throttled) while the shard runs.
func (st *shardState) progress(f *fleet) int64 {
	st.mu.Lock()
	status, worker, id := st.status, st.worker, st.id
	done, last := st.lastDone, st.lastPoll
	st.mu.Unlock()
	switch status {
	case jobDone:
		return st.size
	case jobRunning:
		if worker == "" || time.Since(last) < 200*time.Millisecond {
			return done
		}
		if v, err := f.pollDone(worker, id); err == nil {
			done = v
		}
		st.mu.Lock()
		st.lastDone = done
		st.lastPoll = time.Now()
		st.mu.Unlock()
		return done
	default:
		return done
	}
}

// view snapshots the shard for the parent job view.
func (st *shardState) view() shardView {
	st.mu.Lock()
	defer st.mu.Unlock()
	done := st.lastDone
	if st.status == jobDone {
		done = st.size
	}
	return shardView{
		ID:           st.id,
		Worker:       st.worker,
		Status:       st.status,
		Combinations: st.size,
		Done:         done,
		Redispatches: st.redispatches,
	}
}

// pollDone reads a job's done count from its view on a worker.
func (f *fleet) pollDone(worker, id string) (int64, error) {
	resp, err := f.probeClient.Get(worker + "/v1/jobs/" + id)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("job %s: poll status %s", id, resp.Status)
	}
	var v struct {
		Done int64 `json:"done"`
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&v)
	return v.Done, err
}

// sweep fans a sweep out across the fleet: combinations already in the
// merged cache are skipped (a warm coordinator answers repeat sweeps
// without touching a worker), the rest are grouped by ring owner into
// shards and dispatched in parallel, each shard re-dispatching to the next
// ring candidate if its worker dies mid-run.
func (f *fleet) sweep(ctx context.Context, dev *kepler.Device, combos []core.Combo) (jobSpec, error) {
	// Split resolved from pending. The pending groups keep EnumerateCombos
	// order inside each shard; shard identity comes from the ring, and a
	// shard's own ring key is that of its first combo.
	var preResolved int64
	byWorker := make(map[string]*shardState)
	ringNow := newRing(f.currentMembers(ctx))
	for _, cb := range combos {
		if _, ok := f.runner.Lookup(cb); ok {
			preResolved++
			continue
		}
		key := comboKey(dev.Name, cb.Program.Name(), cb.Input, cb.Clocks.Name)
		owner := ringNow.owner(key)
		if owner == "" {
			return jobSpec{}, errNoWorkers
		}
		st := byWorker[owner]
		if st == nil {
			st = &shardState{work: shardRequest{Device: dev.Name}, key: key, status: jobQueued}
			byWorker[owner] = st
		}
		st.work.Combos = append(st.work.Combos, shardCombo{Program: cb.Program.Name(), Input: cb.Input, Config: cb.Clocks.Name})
		st.size++
	}
	workerOrder := make([]string, 0, len(byWorker))
	for worker := range byWorker {
		workerOrder = append(workerOrder, worker)
	}
	sort.Strings(workerOrder)

	f.m.sweepFanouts.Inc()
	shards := make([]*shardState, 0, len(workerOrder))
	for _, worker := range workerOrder {
		shards = append(shards, byWorker[worker])
	}
	return f.shardJob(len(combos), preResolved, shards, func(resps []shardResponse) any {
		// Import whatever completed even when some shards failed: a
		// retried sweep then only re-dispatches the missing part.
		var all []core.Result
		for _, sr := range resps {
			all = append(all, sr.Results...)
		}
		core.SortResults(all)
		f.runner.ImportResults(all)
		return nil
	}), nil
}

// shardJob returns the job that dispatches shards in parallel and hands
// every shard's response — empty for a shard that failed — to merge, whose
// value is the job's result. Shard ids embed the parent job id, which the
// registry assigns, so the shards are named inside run. The shard table
// itself is immutable; only shardState fields mutate, under their own
// mutex, so views and dispatch never race.
func (f *fleet) shardJob(size int, preResolved int64, shards []*shardState, merge func([]shardResponse) any) jobSpec {
	return jobSpec{
		combos:   size,
		absolute: true,
		// The parent's progress is clamped to a high-water mark:
		// re-dispatching a dead worker's shard resets that shard's counter
		// to zero (the new worker genuinely restarts it), and without the
		// clamp the parent job's done count would step backward mid-run.
		progress: monotoneProgress(func() int64 {
			done := preResolved
			for _, st := range shards {
				done += st.progress(f)
			}
			return done
		}),
		decorate: func(v *jobView) {
			v.Shards = make([]shardView, 0, len(shards))
			for _, st := range shards {
				v.Shards = append(v.Shards, st.view())
			}
		},
		run: func(ctx context.Context, id string) (any, error) {
			var wg sync.WaitGroup
			errs := make([]error, len(shards))
			resps := make([]shardResponse, len(shards))
			for i, st := range shards {
				st.mu.Lock()
				st.id = fmt.Sprintf("%s/shard-%d", id, i)
				st.mu.Unlock()
				wg.Add(1)
				go func() {
					defer wg.Done()
					resps[i], errs[i] = f.runShard(ctx, st)
				}()
			}
			wg.Wait()
			return merge(resps), errors.Join(errs...)
		},
	}
}

// runShard dispatches one shard along the ring. Dispatch is synchronous — a
// worker dying mid-shard surfaces as the POST's transport error, which is
// the re-dispatch signal.
func (f *fleet) runShard(ctx context.Context, st *shardState) (shardResponse, error) {
	req := st.work
	req.ID = st.id
	body, err := json.Marshal(req)
	if err != nil {
		return shardResponse{}, err
	}
	var sr shardResponse
	err = f.onRing(ctx, st.key, func(worker string) error {
		st.setWorker(worker)
		f.m.shardsDispatched.Inc()
		status, data, err := f.post(ctx, worker+"/v1/shard", body)
		switch {
		case err != nil && ctx.Err() != nil:
			// The parent was canceled (or the coordinator is draining):
			// the POST teardown already cancels the worker's shard job;
			// the DELETE just makes its view terminal immediately.
			f.cancelRemoteJob(worker, st.id)
			return err
		case err != nil:
			if errors.As(err, new(retryErr)) {
				st.bumpRedispatch()
			}
			return err
		case status != http.StatusOK:
			return fmt.Errorf("worker %s: status %d: %s", worker, status, bytes.TrimSpace(data))
		}
		if err := json.Unmarshal(data, &sr); err != nil {
			return fmt.Errorf("worker %s: decoding response: %w", worker, err)
		}
		return nil
	})
	switch {
	case err == nil:
		st.setStatus(jobDone)
		return sr, nil
	case ctx.Err() != nil:
		st.setStatus(jobCanceled)
	default:
		st.setStatus(jobFailed)
	}
	return shardResponse{}, fmt.Errorf("shard %s: %w", st.id, err)
}

// --- measure proxy ---

// measure answers from the merged cache when it can, otherwise proxies the
// canonical request to the combination's ring owner and imports the result.
// A proxied response is relayed byte-for-byte, so a client cannot tell a
// coordinator from a worker.
func (f *fleet) measure(ctx context.Context, w http.ResponseWriter, cb core.Combo) {
	if _, ok := f.runner.Lookup(cb); ok {
		writeMeasure(ctx, w, f.runner, cb)
		return
	}
	program, input, config, board := cb.Program.Name(), cb.Input, cb.Clocks.Name, cb.Clocks.Device().Name
	body, err := json.Marshal(measureRequest{Program: program, Input: input, Config: config, Device: board})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	var status int
	var data []byte
	err = f.onRing(ctx, comboKey(board, program, input, config), func(worker string) error {
		var err error
		status, data, err = f.post(ctx, worker+"/v1/measure", body)
		return err
	})
	switch {
	case ctx.Err() != nil:
		writeMeasureError(w, ctx.Err())
		return
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	f.m.measureProxied.Inc()
	f.importMeasure(program, input, config, board, status, data)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// importMeasure folds a proxied measure response into the merged cache: a
// 200 carries the worker's core.Result, a 422 insufficient the exclusion.
func (f *fleet) importMeasure(program, input, config, board string, status int, body []byte) {
	switch status {
	case http.StatusOK:
		var rec core.Result
		if err := json.Unmarshal(body, &rec); err != nil {
			return
		}
		f.runner.ImportResults([]core.Result{rec})
	case http.StatusUnprocessableEntity:
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || !er.Insufficient {
			return
		}
		f.runner.ImportResults([]core.Result{{
			Program: program, Input: input, Config: config, Board: board, Insufficient: true,
		}})
	}
}

// --- frontier and attribution: one shard each ---

// frontier runs the frontier as a single shard on the (device, program,
// input) ring owner.
func (f *fleet) frontier(fw frontierWork) jobSpec {
	f.m.frontierProxied.Inc()
	key := comboKey(fw.dev.Name, fw.p.Name(), fw.req.Input, "")
	return f.oneShard(key, fw.size, shardRequest{Frontier: &fw.req})
}

// attrib runs the attribution matrix as a single shard on the ring owner of
// its (device, programs) selection.
func (f *fleet) attrib(aw attribWork) jobSpec {
	f.m.attribProxied.Inc()
	key := comboKey(aw.dev.Name, strings.Join(aw.req.Programs, ","), "", "")
	return f.oneShard(key, len(aw.programs)*len(aw.configs), shardRequest{Attrib: &aw.req})
}

// oneShard returns the job that runs work as a single shard on the key's
// ring owner. The finished job's result is the worker's, byte for byte.
func (f *fleet) oneShard(key string, size int, work shardRequest) jobSpec {
	st := &shardState{work: work, size: int64(size), key: key, status: jobQueued}
	return f.shardJob(size, 0, []*shardState{st}, func(resps []shardResponse) any {
		return resps[0].Result
	})
}

// --- traces and metrics ---

// handleTracePut stores a worker-captured launch trace. First write wins —
// captures of the same (device, program, input) are bit-identical, so the
// store never needs to reconcile, and keeping the first preserves pointer
// stability for concurrent readers.
func (f *fleet) handleTracePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTraceBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading trace body: %v", err))
		return
	}
	if _, err := sim.DecodeTrace(data); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid trace: %v", err))
		return
	}
	f.m.traceStorePuts.Inc()
	f.traceMu.Lock()
	if _, exists := f.traces[key]; !exists {
		f.traces[key] = data
		f.m.traceStoreTraces.Add(1)
		f.m.traceStoreBytes.Add(int64(len(data)))
	}
	f.traceMu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleTraceGet serves a stored trace, 404 when the fleet has not captured
// the pair yet.
func (f *fleet) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	f.m.traceStoreGets.Inc()
	f.traceMu.Lock()
	data, ok := f.traces[key]
	f.traceMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no trace for %q", key))
		return
	}
	f.m.traceStoreHits.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// metrics federates the fleet's Prometheus exposition: the coordinator's
// own families labeled worker="coordinator", every ready worker's scrape
// labeled with its address, merged into one consistent exposition (one
// TYPE line per family).
func (f *fleet) metrics(ctx context.Context) ([]promtext.Family, error) {
	sources := [][]promtext.Family{
		f.runner.Metrics().PromFamilies(promtext.Label{Name: "worker", Value: "coordinator"}),
	}
	for _, member := range f.currentMembers(ctx) {
		fams, err := f.scrapeWorker(ctx, member)
		if err != nil {
			f.log.Printf("serve: scraping %s: %v", member, err)
			continue
		}
		promtext.AddLabel(fams, "worker", member)
		sources = append(sources, fams)
	}
	merged, err := promtext.Merge(sources...)
	if err != nil {
		return nil, fmt.Errorf("merging fleet metrics: %w", err)
	}
	return merged, nil
}

// scrapeWorker fetches and parses one worker's /metrics exposition.
func (f *fleet) scrapeWorker(ctx context.Context, worker string) ([]promtext.Family, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.probeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape status %s", resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxTraceBytes))
	if err != nil {
		return nil, err
	}
	return promtext.Parse(data)
}
