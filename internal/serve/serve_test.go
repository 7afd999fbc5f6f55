package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/promtext"
	"repro/internal/sim"
)

// fakeProg is a synthetic benchmark: a single FP32-heavy kernel whose
// simulated duration is stretched by the input surrogate factor, so tests
// get multi-second simulated runs (plenty of 10 Hz sensor samples) at
// sub-millisecond wall-clock cost. sleepPerBlock optionally makes the
// simulation wall-clock slow, for drain tests; gate, when set, holds runs
// until the test releases them.
type fakeProg struct {
	core.Meta
	scale         float64
	sleepPerBlock time.Duration
	gate          *runGate
}

// runGate holds every run after the first until release is closed. One
// gate serves all of a worker's programs, so a worker completes exactly one
// run and then sits still until the test lets it go.
type runGate struct {
	runs    atomic.Int32
	release <-chan struct{}
}

func (g *runGate) wait(ctx context.Context) error {
	if g.runs.Add(1) == 1 {
		return nil
	}
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func newFakeProg(name string, scale float64) *fakeProg {
	return &fakeProg{
		Meta: core.Meta{
			ProgName:   name,
			ProgSuite:  core.SuiteSDK,
			Desc:       "synthetic test kernel",
			Kernels:    1,
			InputNames: []string{"small", "big"},
			Default:    "small",
		},
		scale: scale,
	}
}

func (p *fakeProg) Run(ctx context.Context, dev *sim.Device, input string) error {
	if err := p.CheckInput(input); err != nil {
		return err
	}
	if p.gate != nil {
		if err := p.gate.wait(ctx); err != nil {
			return err
		}
	}
	scale := p.scale
	if input == "big" {
		scale *= 2
	}
	dev.SetTimeScale(scale)
	sleep := p.sleepPerBlock
	dev.Launch("work", 64, 256, func(c *sim.Ctx) {
		if sleep > 0 && c.Thread == 0 {
			time.Sleep(sleep)
		}
		c.FP32Ops(4000)
		c.IntOps(800)
	})
	return nil
}

// newTestServer builds a Server around fresh runner + programs.
func newTestServer(t *testing.T, cfg Config, progs ...core.Program) (*Server, *core.Runner) {
	t.Helper()
	runner := core.NewRunner()
	runner.Workers = 4
	cfg.Runner = runner
	cfg.Programs = progs
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, runner
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestMeasureCoalescing is the singleflight proof: N concurrent identical
// measure requests must cost exactly one simulation and return
// byte-identical bodies.
func TestMeasureCoalescing(t *testing.T) {
	s, runner := newTestServer(t, Config{}, newFakeProg("FAKE", 2e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = postJSON(t, ts.URL+"/v1/measure", `{"program":"FAKE"}`)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	var m core.Record
	if err := json.Unmarshal(bodies[0], &m); err != nil {
		t.Fatalf("response not valid JSON: %v", err)
	}
	if m.Program != "FAKE" || m.Input != "small" || m.Config != "default" || m.Board != "K20c" {
		t.Errorf("identity wrong: %+v", m)
	}
	if m.ActiveTime <= 0 || m.Energy <= 0 || m.AvgPower <= 0 || len(m.Reps) == 0 {
		t.Errorf("measurement empty: %+v", m)
	}

	snap := runner.Metrics().Snapshot()
	if got := snap.Histograms["stage_simulate_seconds"].Count; got != 1 {
		t.Errorf("simulations = %d, want exactly 1 for %d coalesced requests", got, n)
	}
	if got := snap.Counters["measure_cache_misses"]; got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	if waits := snap.Counters["measure_singleflight_waits"] + snap.Counters["measure_cache_hits"]; waits != n-1 {
		t.Errorf("singleflight waits + hits = %d, want %d", waits, n-1)
	}
	if got := snap.Counters["http_measure_requests_total"]; got != n {
		t.Errorf("http_measure_requests_total = %d, want %d", got, n)
	}
	if got := snap.Counters["http_responses_2xx_total"]; got != n {
		t.Errorf("http_responses_2xx_total = %d, want %d", got, n)
	}
	if got := snap.Histograms["http_measure_seconds"].Count; got != n {
		t.Errorf("http_measure_seconds count = %d, want %d", got, n)
	}
}

// TestMeasureValidation exercises the 400 mapping.
func TestMeasureValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{}, newFakeProg("FAKE", 2e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"malformed JSON", `{"program":`},
		{"unknown field", `{"program":"FAKE","frobnicate":1}`},
		{"unknown program", `{"program":"NOPE"}`},
		{"unknown config", `{"program":"FAKE","config":"999"}`},
		{"unknown input", `{"program":"FAKE","input":"huge"}`},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+"/v1/measure", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, code, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, body)
		}
	}

	if code, _ := getJSON(t, ts.URL+"/v1/jobs/job-99"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

// TestMeasureInsufficient422 maps the paper's exclusion criterion: a run
// too short for the sensor yields 422 with insufficient=true, and is served
// from the cache like any other resolved outcome.
func TestMeasureInsufficient422(t *testing.T) {
	// scale 1: the kernel lasts microseconds — far too short to measure.
	s, runner := newTestServer(t, Config{}, newFakeProg("TINY", 1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for round := 0; round < 2; round++ {
		code, body := postJSON(t, ts.URL+"/v1/measure", `{"program":"TINY"}`)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("round %d: status %d, want 422 (body %s)", round, code, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || !er.Insufficient {
			t.Fatalf("round %d: body %s, want insufficient error", round, body)
		}
	}
	// The exclusion is cached: one simulation despite two requests.
	if got := runner.Metrics().Snapshot().Histograms["stage_simulate_seconds"].Count; got != 1 {
		t.Errorf("simulations = %d, want 1 (exclusions are cached)", got)
	}
}

// TestSweepJobLifecycle drives an async sweep to completion and checks the
// job progress, the results dump and health reporting.
func TestSweepJobLifecycle(t *testing.T) {
	s, _ := newTestServer(t, Config{}, newFakeProg("FAKE", 2e5), newFakeProg("OTHER", 2.5e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v1/sweep", `{"programs":["FAKE"],"configs":["default","614"],"allInputs":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep: status %d, body %s", code, body)
	}
	var jv jobView
	if err := json.Unmarshal(body, &jv); err != nil {
		t.Fatal(err)
	}
	if jv.ID == "" || jv.Combinations != 4 { // 2 inputs x 2 configs
		t.Fatalf("job view %+v, want id and 4 combinations", jv)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body = getJSON(t, ts.URL+"/v1/jobs/"+jv.ID)
		if code != http.StatusOK {
			t.Fatalf("job poll: status %d, body %s", code, body)
		}
		if err := json.Unmarshal(body, &jv); err != nil {
			t.Fatal(err)
		}
		if jv.Status == jobDone || jv.Status == jobFailed || jv.Status == jobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", jv)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if jv.Status != jobDone {
		t.Fatalf("job finished %q (%s), want done", jv.Status, jv.Error)
	}
	if jv.Done != 4 {
		t.Errorf("job done = %d, want 4", jv.Done)
	}

	code, body = getJSON(t, ts.URL+"/v1/results")
	if code != http.StatusOK {
		t.Fatalf("results: status %d", code)
	}
	var rr resultsResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Version != core.StoreVersion || rr.Count != 4 || len(rr.Results) != 4 {
		t.Errorf("results dump: version %d count %d len %d, want version %d count 4",
			rr.Version, rr.Count, len(rr.Results), core.StoreVersion)
	}
	for _, rec := range rr.Results {
		if rec.Program != "FAKE" || (rec.Reps == nil && !rec.Insufficient) {
			t.Errorf("bad result record %+v", rec)
		}
	}

	var hz healthzResponse
	code, body = getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Resolved != 4 || hz.Pending != 0 {
		t.Errorf("healthz %+v, want ok/4/0", hz)
	}
}

// scrapeMetrics fetches base's /metrics exposition, requires it to be
// lint-clean Prometheus text, and parses it.
func scrapeMetrics(t *testing.T, base string, accept string) []promtext.Family {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promtext.ContentType {
		t.Errorf("Content-Type %q, want %q", ct, promtext.ContentType)
	}
	if errs := promtext.LintText(prom); len(errs) > 0 {
		t.Errorf("exposition not lint-clean: %v", errs)
	}
	fams, err := promtext.Parse(prom)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, prom)
	}
	return fams
}

// promValue returns the value of the sample of family with the given
// suffix and exactly the given labels; "" when there is none.
func promValue(fams []promtext.Family, family, suffix string, labels ...promtext.Label) string {
	for _, f := range fams {
		if f.Name != family {
			continue
		}
		for _, sm := range f.Samples {
			if sm.Suffix == suffix && fmt.Sprint(sm.Labels) == fmt.Sprint(labels) {
				return sm.Value
			}
		}
	}
	return ""
}

// TestMetricsEndpoint: /metrics is lint-clean Prometheus text exposition
// 0.0.4 whatever the Accept header asks for, and carries the pipeline and
// HTTP data. The JSON snapshot route is retired.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{}, newFakeProg("FAKE", 2e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := postJSON(t, ts.URL+"/v1/measure", `{"program":"FAKE"}`); code != http.StatusOK {
		t.Fatalf("measure: status %d", code)
	}
	fams := scrapeMetrics(t, ts.URL, "")
	if got := promValue(fams, "gpuchard_stage_simulate_seconds", "_count"); got != "1" {
		t.Errorf("gpuchard_stage_simulate_seconds_count = %q, want 1", got)
	}
	if promValue(fams, "gpuchard_stage_simulate_seconds", "_bucket", promtext.Label{Name: "le", Value: "+Inf"}) == "" {
		t.Error("exposition missing the stage histogram's buckets")
	}
	if got := promValue(fams, "gpuchard_http_measure_requests_total", ""); got != "1" {
		t.Errorf("gpuchard_http_measure_requests_total = %q, want 1", got)
	}
	if got := promValue(fams, "gpuchard_simulate_runs_total", "", promtext.Label{Name: "device", Value: "K20c"}); got != "1" {
		t.Errorf(`gpuchard_simulate_runs_total{device="K20c"} = %q, want 1`, got)
	}

	// Asking for JSON still gets the one exposition format.
	scrapeMetrics(t, ts.URL, "application/json")
	if code, _ := getJSON(t, ts.URL+"/metrics.json"); code != http.StatusNotFound {
		t.Errorf("/metrics.json: status %d, want 404 (retired)", code)
	}
}

// TestMetricsPoolGaugeHelp: the worker-pool gauges the pool registers carry
// their written docstrings, not the generic one derived from the name.
func TestMetricsPoolGaugeHelp(t *testing.T) {
	s, _ := newTestServer(t, Config{}, newFakeProg("FAKE", 2e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := postJSON(t, ts.URL+"/v1/measure", `{"program":"FAKE"}`); code != http.StatusOK {
		t.Fatalf("measure: status %d", code)
	}
	help := map[string]string{}
	for _, f := range scrapeMetrics(t, ts.URL, "") {
		help[f.Name] = f.Help
	}
	for name, want := range map[string]string{
		"gpuchard_pool_workers_budget":      "Size of the shared simulation worker pool.",
		"gpuchard_pool_workers_in_use_peak": "High-water mark of held worker-pool slots.",
	} {
		if got, ok := help[name]; !ok {
			t.Errorf("exposition has no %s family", name)
		} else if got != want {
			t.Errorf("%s HELP = %q, want %q", name, got, want)
		}
	}
}

// serveOn runs srv.Serve on a fresh loopback listener, returning the base
// URL, the cancel that triggers the drain, and a channel with Serve's error.
func serveOn(t *testing.T, srv *Server) (string, context.CancelFunc, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), cancel, errc
}

// TestGracefulDrainCompletesInFlight: a shutdown with a generous drain
// budget lets the in-flight measurement finish (200) and snapshots the
// store, which a second server warm-starts from with zero simulations and a
// byte-identical response.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "store.json")

	slow := newFakeProg("SLOW", 2e5)
	slow.sleepPerBlock = 20 * time.Millisecond // ~1.3s wall-clock simulation
	s, runner := newTestServer(t, Config{StorePath: storePath, DrainTimeout: 30 * time.Second}, slow)

	url, cancel, errc := serveOn(t, s)

	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, 1)
	go func() {
		code, body := postJSON(t, url+"/v1/measure", `{"program":"SLOW"}`)
		replies <- reply{code, body}
	}()

	// Wait until the simulation is actually in flight, then pull the plug.
	simStarted := func() bool {
		return runner.Metrics().Snapshot().Gauges["pool_workers_in_use"] > 0
	}
	for deadline := time.Now().Add(10 * time.Second); !simStarted(); {
		if time.Now().After(deadline) {
			t.Fatal("simulation never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()

	r := <-replies
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, body %s", r.code, r.body)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Serve returned %v after graceful drain", err)
	}

	if _, err := os.Stat(storePath); err != nil {
		t.Fatalf("store not saved on shutdown: %v", err)
	}

	// Warm restart: same store, fresh runner — the measurement must be
	// served from the cache without simulating, byte-identical.
	s2, runner2 := newTestServer(t, Config{StorePath: storePath}, newFakeProg("SLOW", 2e5))
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	code, body := postJSON(t, ts.URL+"/v1/measure", `{"program":"SLOW"}`)
	if code != http.StatusOK {
		t.Fatalf("warm-start measure: status %d, body %s", code, body)
	}
	if !bytes.Equal(body, r.body) {
		t.Errorf("warm-start response differs from original:\n%s\nvs\n%s", body, r.body)
	}
	if got := runner2.Metrics().Snapshot().Histograms["stage_simulate_seconds"].Count; got != 0 {
		t.Errorf("warm-start simulated %d times, want 0", got)
	}
}

// TestDrainTimeoutAbortsInFlight: with a tiny drain budget the in-flight
// simulation is aborted via the base context; the handler returns the
// context error (503) and the store is still saved.
func TestDrainTimeoutAbortsInFlight(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "store.json")

	slow := newFakeProg("SLOW", 2e5)
	slow.sleepPerBlock = 100 * time.Millisecond // ~6s wall-clock simulation
	s, runner := newTestServer(t, Config{StorePath: storePath, DrainTimeout: 50 * time.Millisecond}, slow)

	url, cancel, errc := serveOn(t, s)

	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, 1)
	go func() {
		code, body := postJSON(t, url+"/v1/measure", `{"program":"SLOW"}`)
		replies <- reply{code, body}
	}()

	simStarted := func() bool {
		return runner.Metrics().Snapshot().Gauges["pool_workers_in_use"] > 0
	}
	for deadline := time.Now().Add(10 * time.Second); !simStarted(); {
		if time.Now().After(deadline) {
			t.Fatal("simulation never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	cancel()

	r := <-replies
	if r.code != http.StatusServiceUnavailable {
		t.Fatalf("aborted request: status %d, want 503 (body %s)", r.code, r.body)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("forced drain took %v; the abort should cut the 6s simulation short", took)
	}
	if _, err := os.Stat(storePath); err != nil {
		t.Fatalf("store not saved on forced shutdown: %v", err)
	}
	// The canceled measurement must not have been cached as a result.
	var sf struct {
		Results []json.RawMessage `json:"results"`
	}
	data, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatal(err)
	}
	if len(sf.Results) != 0 {
		t.Errorf("store holds %d results, want 0 (canceled measurements are evicted)", len(sf.Results))
	}
}

// TestPeriodicSnapshot checks the timer-driven store snapshots.
func TestPeriodicSnapshot(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "store.json")
	s, runner := newTestServer(t,
		Config{StorePath: storePath, SnapshotEvery: 50 * time.Millisecond},
		newFakeProg("FAKE", 2e5))

	url, cancel, errc := serveOn(t, s)
	defer func() { cancel(); <-errc }()

	if code, body := postJSON(t, url+"/v1/measure", `{"program":"FAKE"}`); code != http.StatusOK {
		t.Fatalf("measure: status %d, body %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(storePath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The snapshot must be loadable and contain the measurement.
	r2 := core.NewRunner()
	if err := r2.LoadStore(storePath); err != nil {
		t.Fatalf("periodic snapshot unreadable: %v", err)
	}
	if got := len(r2.Results()); got != 1 {
		t.Errorf("snapshot holds %d results, want 1", got)
	}
	if got := runner.Metrics().Snapshot().Counters["store_snapshots_total"]; got < 1 {
		t.Errorf("store_snapshots_total = %d, want >= 1", got)
	}
}

// TestOneRecordShape: a measured combination serializes byte for byte the
// same as its POST /v1/measure body, its GET /v1/results entry and its
// entry in the saved store (compacted) — one core.Record, one shape.
func TestOneRecordShape(t *testing.T) {
	s, runner := newTestServer(t, Config{}, newFakeProg("FAKE", 2e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, measured := postJSON(t, ts.URL+"/v1/measure", `{"program":"FAKE","input":"big"}`)
	if code != http.StatusOK {
		t.Fatalf("measure: status %d, body %s", code, measured)
	}
	code, results := getJSON(t, ts.URL+"/v1/results")
	if code != http.StatusOK {
		t.Fatalf("results: status %d", code)
	}
	storePath := filepath.Join(t.TempDir(), "store.json")
	if err := runner.SaveStore(storePath); err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}

	want := bytes.TrimSuffix(measured, []byte("\n"))
	for name, doc := range map[string][]byte{"/v1/results": results, "store": stored} {
		var d struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(doc, &d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(d.Results) != 1 {
			t.Fatalf("%s holds %d records, want 1", name, len(d.Results))
		}
		var got bytes.Buffer
		if err := json.Compact(&got, d.Results[0]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s record differs from the /v1/measure body:\n%s\nvs\n%s", name, got.Bytes(), want)
		}
	}
}

// TestConfigValidation: New rejects missing pieces.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a Config without a Runner")
	}
	if _, err := New(Config{Runner: core.NewRunner()}); err == nil {
		t.Error("New accepted a Config without Programs")
	}
	p := newFakeProg("DUP", 1)
	if _, err := New(Config{Runner: core.NewRunner(), Programs: []core.Program{p, p}}); err == nil {
		t.Error("New accepted duplicate program names")
	}
	if _, err := NewCoordinator(Config{Runner: core.NewRunner(), Programs: []core.Program{p}}); err == nil {
		t.Error("NewCoordinator accepted a Config without Peers")
	}
}

// TestRequestTimeout504: a request deadline shorter than the simulation
// maps to 504 and the aborted measurement is recomputable afterwards.
func TestRequestTimeout504(t *testing.T) {
	slow := newFakeProg("SLOW", 2e5)
	slow.sleepPerBlock = 100 * time.Millisecond
	s, _ := newTestServer(t, Config{RequestTimeout: 200 * time.Millisecond}, slow)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v1/measure", `{"program":"SLOW"}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: status %d, want 504 (body %s)", code, body)
	}
}

// TestResultsDeterministicOrder: Results must list entries in the stable
// store order so /v1/results is reproducible.
func TestResultsDeterministicOrder(t *testing.T) {
	s, _ := newTestServer(t, Config{}, newFakeProg("B", 2e5), newFakeProg("A", 2e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, prog := range []string{"B", "A"} {
		for _, cfg := range []string{"614", "default"} {
			body := fmt.Sprintf(`{"program":%q,"config":%q}`, prog, cfg)
			if code, b := postJSON(t, ts.URL+"/v1/measure", body); code != http.StatusOK {
				t.Fatalf("measure %s@%s: status %d body %s", prog, cfg, code, b)
			}
		}
	}
	_, body := getJSON(t, ts.URL+"/v1/results")
	var rr resultsResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, re := range rr.Results {
		got = append(got, re.Program+"@"+re.Config)
	}
	want := []string{"A@614", "A@default", "B@614", "B@default"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("results order %v, want %v", got, want)
	}
}
