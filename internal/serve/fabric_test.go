package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/promtext"
)

// Failure-matrix tests for the sweep fabric: a coordinator fanning sweeps
// across worker processes must produce byte-identical results to a single
// standalone process — including when a worker dies mid-sweep, when the
// coordinator restarts warm, and when launch traces are brokered instead of
// captured locally.

const fabricSweepBody = `{"programs":["FA","FB","FC"],"allInputs":true}`

func fabricProgs() []core.Program {
	return []core.Program{
		newFakeProg("FA", 2e5),
		newFakeProg("FB", 3e5),
		newFakeProg("FC", 5e5),
	}
}

// slowProgs builds a single program whose capture simulation takes long
// enough to kill a worker mid-shard.
func slowProgs() []core.Program {
	p := newFakeProg("SLOW", 2e5)
	p.sleepPerBlock = 3 * time.Millisecond
	return []core.Program{p}
}

type fabricWorker struct {
	srv    *Server
	runner *core.Runner
	ts     *httptest.Server
}

func newFabricWorkers(t *testing.T, n int, mkProgs func() []core.Program) ([]*fabricWorker, []string) {
	t.Helper()
	ws := make([]*fabricWorker, n)
	urls := make([]string, n)
	for i := range ws {
		s, runner := newTestServer(t, Config{}, mkProgs()...)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		ws[i] = &fabricWorker{srv: s, runner: runner, ts: ts}
		urls[i] = ts.URL
	}
	return ws, urls
}

func newTestCoordinator(t *testing.T, peers []string, progs []core.Program, mod func(*CoordinatorConfig)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := CoordinatorConfig{
		Runner:      core.NewRunner(),
		Programs:    progs,
		Peers:       peers,
		HealthEvery: 50 * time.Millisecond,
		Log:         log.New(io.Discard, "", 0),
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

// runSweep posts a sweep, waits for completion and returns the store bytes.
func runSweep(t *testing.T, base, body string) []byte {
	t.Helper()
	code, data := postJSON(t, base+"/v1/sweep", body)
	if code != http.StatusAccepted {
		t.Fatalf("sweep: status %d, body %s", code, data)
	}
	var jv jobView
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, base, jv.ID)
	code, results := getJSON(t, base+"/v1/results")
	if code != http.StatusOK {
		t.Fatalf("/v1/results: status %d", code)
	}
	return results
}

// TestFabricSweepByteIdentical is the tentpole acceptance check: a 3-worker
// fabric sweep merges to exactly the bytes a standalone server produces.
func TestFabricSweepByteIdentical(t *testing.T) {
	standalone, _ := newTestServer(t, Config{}, fabricProgs()...)
	sts := httptest.NewServer(standalone.Handler())
	defer sts.Close()
	want := runSweep(t, sts.URL, fabricSweepBody)

	ws, urls := newFabricWorkers(t, 3, fabricProgs)
	_, cts := newTestCoordinator(t, urls, fabricProgs(), nil)
	got := runSweep(t, cts.URL, fabricSweepBody)

	if !bytes.Equal(want, got) {
		t.Errorf("fabric results differ from standalone:\n--- standalone ---\n%s\n--- fabric ---\n%s", want, got)
	}
	// The sweep genuinely fanned out: more than one worker simulated.
	active := 0
	for _, w := range ws {
		if w.runner.Metrics().Snapshot().Counters["simulate_runs_device_K20c"] > 0 {
			active++
		}
	}
	if active < 2 {
		t.Errorf("only %d of 3 workers simulated anything — sweep did not fan out", active)
	}
}

// waitShardRunning polls a coordinator job until some shard is mid-dispatch
// and returns that shard's view.
func waitShardRunning(t *testing.T, base, id string) shardView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, data := getJSON(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job poll: status %d, body %s", code, data)
		}
		var jv jobView
		if err := json.Unmarshal(data, &jv); err != nil {
			t.Fatal(err)
		}
		for _, sh := range jv.Shards {
			if sh.Status == jobRunning && sh.Worker != "" {
				return sh
			}
		}
		if jv.Status != jobQueued && jv.Status != jobRunning {
			t.Fatalf("job terminal before any shard ran: %+v", jv)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no shard entered running state")
	return shardView{}
}

// TestFabricWorkerDeathMidSweep kills the worker currently executing a shard
// and requires the coordinator to re-dispatch that shard and still merge the
// exact standalone bytes.
func TestFabricWorkerDeathMidSweep(t *testing.T) {
	body := `{"programs":["SLOW"],"allInputs":true}`

	standalone, _ := newTestServer(t, Config{}, slowProgs()...)
	sts := httptest.NewServer(standalone.Handler())
	defer sts.Close()
	want := runSweep(t, sts.URL, body)

	ws, urls := newFabricWorkers(t, 3, slowProgs)
	c, cts := newTestCoordinator(t, urls, slowProgs(), nil)

	code, data := postJSON(t, cts.URL+"/v1/sweep", body)
	if code != http.StatusAccepted {
		t.Fatalf("sweep: status %d, body %s", code, data)
	}
	var jv jobView
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}

	victim := waitShardRunning(t, cts.URL, jv.ID)
	for _, w := range ws {
		if w.ts.URL == victim.Worker {
			w.ts.CloseClientConnections()
			w.ts.Close()
		}
	}

	waitJobDone(t, cts.URL, jv.ID)
	snap := c.runner.Metrics().Snapshot()
	if snap.Counters["fabric_shard_redispatches"] == 0 {
		t.Error("worker died mid-shard but fabric_shard_redispatches is 0")
	}
	code, got := getJSON(t, cts.URL+"/v1/results")
	if code != http.StatusOK {
		t.Fatalf("/v1/results: status %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Error("results after worker death differ from standalone bytes")
	}
}

// TestFabricWarmCoordinatorRestart: a restarted coordinator keeps nothing,
// yet answers a repeat sweep from its workers' caches — zero worker
// simulations, identical bytes.
func TestFabricWarmCoordinatorRestart(t *testing.T) {
	ws, urls := newFabricWorkers(t, 2, fabricProgs)
	_, cts1 := newTestCoordinator(t, urls, fabricProgs(), nil)
	first := runSweep(t, cts1.URL, fabricSweepBody)

	before := make([]int64, len(ws))
	for i, w := range ws {
		before[i] = w.runner.Metrics().Snapshot().Counters["simulate_runs_device_K20c"]
	}

	_, cts2 := newTestCoordinator(t, urls, fabricProgs(), nil)
	second := runSweep(t, cts2.URL, fabricSweepBody)
	if !bytes.Equal(first, second) {
		t.Error("restarted coordinator serves different bytes than the one that did the work")
	}
	for i, w := range ws {
		if after := w.runner.Metrics().Snapshot().Counters["simulate_runs_device_K20c"]; after != before[i] {
			t.Errorf("worker %d simulated %d combos for a repeat sweep, want 0", i, after-before[i])
		}
	}
}

// TestFabricTraceBrokered: with the coordinator brokering launch traces, the
// fleet captures each (device, program, input) exactly once — the second
// worker replays the first worker's trace instead of re-running the program.
func TestFabricTraceBrokered(t *testing.T) {
	ws, urls := newFabricWorkers(t, 2, fabricProgs)
	c, cts := newTestCoordinator(t, urls, fabricProgs(), nil)
	for _, w := range ws {
		w.runner.Broker = NewHTTPTraceBroker(cts.URL, w.runner.Metrics())
	}

	// Worker 0 measures first: broker miss, local capture, publish.
	code, data := postJSON(t, ws[0].ts.URL+"/v1/measure", `{"program":"FA","config":"614"}`)
	if code != http.StatusOK {
		t.Fatalf("worker 0 measure: status %d, body %s", code, data)
	}
	snap0 := ws[0].runner.Metrics().Snapshot()
	if got := snap0.Counters["trace_cache_captures"]; got != 1 {
		t.Fatalf("worker 0 trace_cache_captures = %d, want 1", got)
	}
	if got := snap0.Counters["trace_broker_puts"]; got != 1 {
		t.Errorf("worker 0 trace_broker_puts = %d, want 1", got)
	}
	csnap := c.runner.Metrics().Snapshot()
	if got := csnap.Counters["trace_store_puts"]; got != 1 {
		t.Errorf("coordinator trace_store_puts = %d, want 1", got)
	}
	if got := csnap.Gauges["trace_store_traces"]; got != 1 {
		t.Errorf("coordinator trace_store_traces = %v, want 1", got)
	}

	// Worker 1 measures the same (program, input) at another clock config:
	// it adopts the brokered trace instead of capturing its own.
	code, data = postJSON(t, ws[1].ts.URL+"/v1/measure", `{"program":"FA"}`)
	if code != http.StatusOK {
		t.Fatalf("worker 1 measure: status %d, body %s", code, data)
	}
	snap1 := ws[1].runner.Metrics().Snapshot()
	if got := snap1.Counters["trace_broker_fetch_hits"]; got != 1 {
		t.Errorf("worker 1 trace_broker_fetch_hits = %d, want 1", got)
	}
	fleetCaptures := snap0.Counters["trace_cache_captures"] +
		snap1.Counters["trace_cache_captures"]
	if fleetCaptures != 1 {
		t.Errorf("fleet-wide trace_cache_captures = %d, want 1", fleetCaptures)
	}
}

// TestFabricCancelFansOut: canceling the parent job on the coordinator
// cancels the in-flight shard jobs on the workers — a sweep's shards and a
// proxied frontier's single shard alike.
func TestFabricCancelFansOut(t *testing.T) {
	for _, tc := range []struct{ name, route, body string }{
		{"sweep", "/v1/sweep", `{"programs":["SLOW"],"allInputs":true}`},
		{"frontier", "/v1/frontier", `{"program":"SLOW","spec":` + smallSpec + `}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws, urls := newFabricWorkers(t, 2, slowProgs)
			_, cts := newTestCoordinator(t, urls, slowProgs(), nil)
			testCancelFansOut(t, ws, cts.URL, tc.route, tc.body)
		})
	}
}

// testCancelFansOut starts a job, cancels it on the coordinator once a
// shard runs, and waits for the parent and the worker's shard job to end
// canceled.
func testCancelFansOut(t *testing.T, ws []*fabricWorker, base, route, body string) {
	t.Helper()
	code, data := postJSON(t, base+route, body)
	if code != http.StatusAccepted {
		t.Fatalf("%s: status %d, body %s", route, code, data)
	}
	var jv jobView
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}
	sh := waitShardRunning(t, base, jv.ID)
	var worker *fabricWorker
	for _, w := range ws {
		if w.ts.URL == sh.Worker {
			worker = w
		}
	}
	if worker == nil {
		t.Fatalf("shard worker %q is not in the fleet", sh.Worker)
	}
	// The coordinator marks a shard running as it sends the POST; the shard
	// is in flight once the worker has registered its job.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, data := getJSON(t, worker.ts.URL+"/v1/jobs/"+sh.ID)
		if code == http.StatusOK {
			break
		}
		if code != http.StatusNotFound || time.Now().After(deadline) {
			t.Fatalf("worker never registered shard %s: status %d, body %s", sh.ID, code, data)
		}
		time.Sleep(time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+jv.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	// Parent goes terminal-canceled, and the worker-side shard job follows.
	deadline = time.Now().Add(30 * time.Second)
	for {
		code, data := getJSON(t, base+"/v1/jobs/"+jv.ID)
		if code != http.StatusOK {
			t.Fatalf("job poll: status %d, body %s", code, data)
		}
		var v jobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == jobCanceled {
			break
		}
		if v.Status == jobDone || v.Status == jobFailed {
			t.Fatalf("canceled job terminated as %s", v.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("parent job never canceled: %+v", v)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		code, data := getJSON(t, worker.ts.URL+"/v1/jobs/"+sh.ID)
		if code != http.StatusOK {
			t.Fatalf("worker job poll: status %d, body %s", code, data)
		}
		var v jobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == jobCanceled {
			break
		}
		if v.Status == jobDone || v.Status == jobFailed {
			t.Fatalf("worker shard %s terminated as %s after parent cancel", sh.ID, v.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker shard never canceled: %+v", v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFabricReadyzAndFederation covers the membership and telemetry glue:
// /readyz reports the live worker count and tracks deaths, and /metrics
// federates every worker's exposition under a worker label, lint-clean.
func TestFabricReadyzAndFederation(t *testing.T) {
	ws, urls := newFabricWorkers(t, 3, fabricProgs)
	_, cts := newTestCoordinator(t, urls, fabricProgs(), nil)

	// Populate some worker counters so federation has real samples.
	runSweep(t, cts.URL, `{"programs":["FA"]}`)

	var rz readyzResponse
	code, data := getJSON(t, cts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz: status %d, body %s", code, data)
	}
	if err := json.Unmarshal(data, &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Workers != 3 {
		t.Errorf("readyz workers = %d, want 3", rz.Workers)
	}

	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promtext.ContentType {
		t.Errorf("/metrics content type %q", ct)
	}
	if errs := promtext.LintText(body); len(errs) != 0 {
		t.Errorf("federated exposition not lint-clean: %v", errs)
	}
	text := string(body)
	if !strings.Contains(text, `worker="coordinator"`) {
		t.Error("federated exposition missing the coordinator's own samples")
	}
	for _, u := range urls {
		if !strings.Contains(text, `worker="`+u+`"`) {
			t.Errorf("federated exposition missing samples for worker %s", u)
		}
	}

	// A dead worker falls out of membership once the probe notices.
	ws[0].ts.CloseClientConnections()
	ws[0].ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, data := getJSON(t, cts.URL+"/readyz")
		if code != http.StatusOK {
			t.Fatalf("/readyz: status %d, body %s", code, data)
		}
		if err := json.Unmarshal(data, &rz); err != nil {
			t.Fatal(err)
		}
		if rz.Workers == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead worker still in membership: %+v", rz)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gatedProgs returns a constructor for one worker's programs: fake
// programs of the given names sharing one runGate on release, so each
// worker completes its first run and holds every later one.
func gatedProgs(release <-chan struct{}, names ...string) func() []core.Program {
	return func() []core.Program {
		g := &runGate{release: release}
		progs := make([]core.Program, len(names))
		for i, name := range names {
			p := newFakeProg(name, 2e5)
			p.gate = g
			progs[i] = p
		}
		return progs
	}
}

// newRelease returns the gate channel of gatedProgs and its idempotent
// release, which also runs at cleanup so no gated run outlives the test.
func newRelease(t *testing.T) (<-chan struct{}, func()) {
	ch := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	return ch, release
}

// pollJob fetches a job view from the server at base.
func pollJob(t *testing.T, base, id string) jobView {
	t.Helper()
	code, data := getJSON(t, base+"/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("job poll: status %d, body %s", code, data)
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// awaitMonotoneDone polls a coordinator job to completion, failing if its
// done count ever steps backward or a re-dispatch never happened.
func awaitMonotoneDone(t *testing.T, c *Server, base, id string) {
	t.Helper()
	var hi int64
	deadline := time.Now().Add(60 * time.Second)
	for {
		v := pollJob(t, base, id)
		if v.Done < hi {
			t.Fatalf("parent progress stepped backward: %d after %d (shards: %+v)", v.Done, hi, v.Shards)
		}
		hi = v.Done
		if v.Status == jobDone {
			break
		}
		if v.Status == jobFailed || v.Status == jobCanceled {
			t.Fatalf("job %s: %+v", id, v)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", v)
		}
		time.Sleep(time.Millisecond)
	}
	if c.runner.Metrics().Snapshot().Counters["fabric_shard_redispatches"] == 0 {
		t.Error("worker death did not force a re-dispatch; the regression scenario was not exercised")
	}
}

// TestFabricProgressMonotoneAcrossRedispatch kills the worker executing a
// shard after that shard has reported forward progress, and asserts the
// parent job's done count never steps backward: re-dispatching resets the
// shard's own counter to zero (the replacement worker genuinely restarts
// it), and the parent used to sum that reset straight into its progress.
func TestFabricProgressMonotoneAcrossRedispatch(t *testing.T) {
	// Four programs at one configuration are four captures over three
	// shards, so some shard holds two or more. The gate lets each worker
	// finish one run and holds the rest: that shard sits at Done == 1
	// until its worker is killed.
	gate, release := newRelease(t)
	progs := gatedProgs(gate, "G1", "G2", "G3", "G4")
	ws, urls := newFabricWorkers(t, 3, progs)
	c, cts := newTestCoordinator(t, urls, progs(), nil)

	code, data := postJSON(t, cts.URL+"/v1/sweep", `{"programs":["G1","G2","G3","G4"],"configs":["614"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep: status %d, body %s", code, data)
	}
	var jv jobView
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}

	// The deterministic repro of the unclamped sum lives in
	// TestShardRedispatchResetClampedByParent; this test exercises the
	// whole fabric path.
	var victim shardView
	deadline := time.Now().Add(60 * time.Second)
	for victim.Worker == "" {
		if time.Now().After(deadline) {
			t.Fatal("no shard reported mid-run progress before the deadline")
		}
		v := pollJob(t, cts.URL, jv.ID)
		for _, sh := range v.Shards {
			if sh.Status == jobRunning && sh.Worker != "" && sh.Done == 1 && sh.Combinations >= 2 {
				victim = sh
				break
			}
		}
		if v.Status != jobQueued && v.Status != jobRunning {
			t.Fatalf("job terminal before any shard progressed: %+v", v)
		}
		time.Sleep(time.Millisecond)
	}
	for _, w := range ws {
		if w.ts.URL == victim.Worker {
			w.ts.CloseClientConnections()
			w.ts.Close()
		}
	}
	release()
	awaitMonotoneDone(t, c, cts.URL, jv.ID)
}

// TestFabricAttribProgressMonotoneAcrossRedispatch kills the worker that
// owns a proxied attribution job after the job has reported progress, and
// asserts the coordinator's done count never steps backward: the
// replacement worker restarts the job from 0.
func TestFabricAttribProgressMonotoneAcrossRedispatch(t *testing.T) {
	// The owner prices GA's rows off its one free run, then holds GB's
	// capture at the gate: the job sits at GA's rows until the kill.
	gate, release := newRelease(t)
	progs := gatedProgs(gate, "GA", "GB")
	ws, urls := newFabricWorkers(t, 3, progs)
	c, cts := newTestCoordinator(t, urls, progs(), nil)

	code, data := postJSON(t, cts.URL+"/v1/attrib", `{"programs":["GA","GB"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("attrib: status %d, body %s", code, data)
	}
	var jv jobView
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(60 * time.Second)
	v := pollJob(t, cts.URL, jv.ID)
	for ; v.Done == 0; v = pollJob(t, cts.URL, jv.ID) {
		if v.Status != jobQueued && v.Status != jobRunning {
			t.Fatalf("job terminal before it reported progress: %+v", v)
		}
		if time.Now().After(deadline) {
			t.Fatal("attribution reported no progress before the deadline")
		}
		time.Sleep(time.Millisecond)
	}
	// The shard table names the worker running the attribution.
	if len(v.Shards) != 1 || v.Shards[0].Redispatches > 0 {
		t.Fatalf("want one shard, never re-dispatched, before the kill: %+v", v.Shards)
	}
	killed := 0
	for _, w := range ws {
		if w.ts.URL == v.Shards[0].Worker {
			w.ts.CloseClientConnections()
			w.ts.Close()
			killed++
		}
	}
	if killed != 1 {
		t.Fatalf("the shard's worker %q is none of the fabric's workers", v.Shards[0].Worker)
	}
	release()
	awaitMonotoneDone(t, c, cts.URL, jv.ID)
}

// TestMonotoneProgressClamp pins the high-water behavior of the parent
// progress wrapper in isolation.
func TestMonotoneProgressClamp(t *testing.T) {
	vals := []int64{0, 3, 5, 2, 4, 7, 1, 7}
	want := []int64{0, 3, 5, 5, 5, 7, 7, 7}
	i := 0
	p := monotoneProgress(func() int64 { v := vals[i]; i++; return v })
	for k := range vals {
		got, canc := p()
		if got != want[k] || canc != 0 {
			t.Errorf("call %d: got (%d, %d), want (%d, 0)", k, got, canc, want[k])
		}
	}
}

// TestShardRedispatchResetClampedByParent is the deterministic repro of the
// backward-progress bug: a shard that reported partial progress is
// re-dispatched (setWorker resets its counter to zero), and the clamped
// parent sum must hold its high-water mark instead of stepping back.
func TestShardRedispatchResetClampedByParent(t *testing.T) {
	c := &fleet{probeClient: &http.Client{Timeout: 50 * time.Millisecond}}
	mid := &shardState{size: 4, status: jobRunning, lastDone: 3, lastPoll: time.Now()}
	done := &shardState{size: 2, status: jobDone}
	shards := []*shardState{mid, done}
	progress := monotoneProgress(func() int64 {
		var sum int64
		for _, st := range shards {
			sum += st.progress(c)
		}
		return sum
	})

	if got, _ := progress(); got != 5 {
		t.Fatalf("pre-redispatch progress = %d, want 5", got)
	}
	// The worker dies; the shard is re-dispatched to a replacement that is
	// not answering yet — exactly the moment the raw sum used to drop to 2.
	mid.bumpRedispatch()
	mid.setWorker("http://127.0.0.1:1") // nothing listening: poll fails, done stays 0
	if got, _ := progress(); got != 5 {
		t.Errorf("post-redispatch progress = %d, want the clamped 5", got)
	}
	// The replacement's restarted counts eventually pass the mark and the
	// parent moves forward again.
	mid.mu.Lock()
	mid.lastDone, mid.lastPoll = 4, time.Now()
	mid.mu.Unlock()
	if got, _ := progress(); got != 6 {
		t.Errorf("recovered progress = %d, want 6", got)
	}
}
