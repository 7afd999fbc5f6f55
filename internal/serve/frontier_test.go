package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// frontierJobView decodes a job view with its payload kept raw.
type frontierJobView struct {
	ID           string          `json:"id"`
	Status       jobStatus       `json:"status"`
	Combinations int64           `json:"combinations"`
	Done         int64           `json:"done"`
	Error        string          `json:"error,omitempty"`
	Result       json.RawMessage `json:"result,omitempty"`
	Shards       []shardView     `json:"shards,omitempty"`
}

// smallSpec keeps the e2e grids cheap: 8 core clocks on one memory row
// (plus the canonical 4 the generator always prepends).
const smallSpec = `{"coreMinMHz":324,"coreMaxMHz":758,"coreStepMHz":62,"memMHz":[2600]}`

// pollFrontierJob polls until the job reaches a terminal state.
func pollFrontierJob(t *testing.T, base, id string) frontierJobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := getJSON(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job poll: status %d, body %s", code, body)
		}
		var jv frontierJobView
		if err := json.Unmarshal(body, &jv); err != nil {
			t.Fatal(err)
		}
		if jv.Status == jobDone || jv.Status == jobFailed || jv.Status == jobCanceled {
			return jv
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", jv)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFrontierJobLifecycle: submit → progress via obs deltas → fetch. The
// completed job carries the frontier summary, its Done progress equals its
// combination count, and the whole grid cost exactly one simulation (the
// trace capture).
func TestFrontierJobLifecycle(t *testing.T) {
	s, runner := newTestServer(t, Config{}, newFakeProg("FAKE", 2e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v1/frontier", `{"program":"FAKE","spec":`+smallSpec+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("frontier: status %d, body %s", code, body)
	}
	var jv frontierJobView
	if err := json.Unmarshal(body, &jv); err != nil {
		t.Fatal(err)
	}
	if jv.ID == "" || jv.Combinations != 12 { // 8 grid cores + canonical 4
		t.Fatalf("job view %+v, want id and 12 combinations", jv)
	}

	jv = pollFrontierJob(t, ts.URL, jv.ID)
	if jv.Status != jobDone {
		t.Fatalf("job finished %q (%s), want done", jv.Status, jv.Error)
	}
	var sum frontierSummary
	if err := json.Unmarshal(jv.Result, &sum); err != nil {
		t.Fatalf("job result not a frontier summary: %v (%s)", err, jv.Result)
	}
	if sum.Program != "FAKE" || sum.Input != "small" {
		t.Errorf("summary identity wrong: %+v", sum)
	}
	if sum.GridConfigs != 12 || sum.Measurable == 0 {
		t.Errorf("summary counts wrong: %+v", sum)
	}
	if sum.Default == nil || sum.EDP == nil || sum.ED2P == nil || len(sum.Pareto) == 0 {
		t.Errorf("summary missing sweet spots or front: %+v", sum)
	}
	if sum.Optimizer.Best == "" || sum.Optimizer.Evals == 0 {
		t.Errorf("summary missing optimizer outcome: %+v", sum)
	}
	// A finished job reports every grid point done; the replay counter
	// behind its running progress counts every measurable point.
	if jv.Done != jv.Combinations {
		t.Errorf("job Done = %d, want %d (combinations)", jv.Done, jv.Combinations)
	}
	snap := runner.Metrics().Snapshot()
	if got, want := snap.Counters["frontier_replays"], int64(sum.Measurable); got != want {
		t.Errorf("frontier_replays = %d, want %d (every measurable point)", got, want)
	}
	// The whole grid cost one trace capture, and every point replayed it
	// (replays pass through the simulate stage too, so the capture counter
	// is the simulation-cost proof).
	if got := snap.Counters["trace_cache_captures"]; got != 1 {
		t.Errorf("trace_cache_captures = %d, want 1 for %d configs", got, sum.GridConfigs)
	}
	if got := snap.Counters["trace_cache_replays"]; got != int64(sum.GridConfigs) {
		t.Errorf("trace_cache_replays = %d, want %d", got, sum.GridConfigs)
	}
}

// TestFrontierValidation exercises the 400/422 mapping: unknown names and
// malformed bodies are client errors, structurally valid but physically
// impossible grid bounds are unprocessable.
func TestFrontierValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{}, newFakeProg("FAKE", 2e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", `{"program":`, http.StatusBadRequest},
		{"unknown field", `{"program":"FAKE","frobnicate":1}`, http.StatusBadRequest},
		{"unknown program", `{"program":"NOPE"}`, http.StatusBadRequest},
		{"unknown input", `{"program":"FAKE","input":"huge"}`, http.StatusBadRequest},
		{"inverted core bounds", `{"program":"FAKE","spec":{"coreMinMHz":758,"coreMaxMHz":324,"coreStepMHz":62,"memMHz":[2600]}}`, http.StatusUnprocessableEntity},
		{"zero step", `{"program":"FAKE","spec":{"coreMinMHz":324,"coreMaxMHz":758,"coreStepMHz":0,"memMHz":[2600]}}`, http.StatusUnprocessableEntity},
		{"no memory clocks", `{"program":"FAKE","spec":{"coreMinMHz":324,"coreMaxMHz":758,"coreStepMHz":62,"memMHz":[]}}`, http.StatusUnprocessableEntity},
		{"duplicate memory clocks", `{"program":"FAKE","spec":{"coreMinMHz":324,"coreMaxMHz":758,"coreStepMHz":62,"memMHz":[2600,2600]}}`, http.StatusUnprocessableEntity},
		{"oversized grid", `{"program":"FAKE","spec":{"coreMinMHz":1,"coreMaxMHz":100000,"coreStepMHz":1,"memMHz":[2600]}}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+"/v1/frontier", tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, code, tc.want, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, body)
		}
	}
}

// TestFrontierDrainMidJob: shutting down while a frontier job's capture
// simulation is in flight cancels the job (not fails it), and the aborted
// capture leaves no trace in the store.
func TestFrontierDrainMidJob(t *testing.T) {
	runner, store := storeRunner(t, t.TempDir())

	slow := newFakeProg("SLOW", 2e5)
	slow.sleepPerBlock = 100 * time.Millisecond // ~6s wall-clock capture
	s, _ := newTestServer(t, Config{Runner: runner, DrainTimeout: 50 * time.Millisecond}, slow)

	url, cancel, errc := serveOn(t, s)

	code, body := postJSON(t, url+"/v1/frontier", `{"program":"SLOW","spec":`+smallSpec+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("frontier: status %d, body %s", code, body)
	}
	var jv frontierJobView
	if err := json.Unmarshal(body, &jv); err != nil {
		t.Fatal(err)
	}

	simStarted := func() bool {
		return runner.Metrics().Snapshot().Gauges["pool_workers_in_use"] > 0
	}
	for deadline := time.Now().Add(10 * time.Second); !simStarted(); {
		if time.Now().After(deadline) {
			t.Fatal("frontier capture never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}

	j, ok := s.jobs.get(jv.ID)
	if !ok {
		t.Fatalf("job %s lost", jv.ID)
	}
	j.wait()
	if v := j.view(); v.Status != jobCanceled {
		t.Errorf("drained frontier job status %q (%s), want canceled", v.Status, v.Error)
	}
	if store.FetchTrace("K20c", "SLOW", "small") != nil {
		t.Error("the aborted capture left a trace in the store")
	}
}

// TestFrontierWarmRestart: a completed frontier sweep leaves its trace in
// the store; a restarted server answers the same frontier job by replaying
// it, with zero simulations and a byte-identical summary.
func TestFrontierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	req := `{"program":"FAKE","spec":` + smallSpec + `}`

	runner, _ := storeRunner(t, dir)
	s, _ := newTestServer(t, Config{Runner: runner}, newFakeProg("FAKE", 2e5))
	url, cancel, errc := serveOn(t, s)

	code, body := postJSON(t, url+"/v1/frontier", req)
	if code != http.StatusAccepted {
		t.Fatalf("frontier: status %d, body %s", code, body)
	}
	var jv frontierJobView
	if err := json.Unmarshal(body, &jv); err != nil {
		t.Fatal(err)
	}
	first := pollFrontierJob(t, url, jv.ID)
	if first.Status != jobDone {
		t.Fatalf("first frontier job %q (%s), want done", first.Status, first.Error)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}

	// Restart: fresh runner, same store. The frontier re-prices the grid
	// entirely by replaying the stored trace — zero simulations.
	runner2, _ := storeRunner(t, dir)
	s2, _ := newTestServer(t, Config{Runner: runner2}, newFakeProg("FAKE", 2e5))
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	code, body = postJSON(t, ts.URL+"/v1/frontier", req)
	if code != http.StatusAccepted {
		t.Fatalf("warm frontier: status %d, body %s", code, body)
	}
	if err := json.Unmarshal(body, &jv); err != nil {
		t.Fatal(err)
	}
	second := pollFrontierJob(t, ts.URL, jv.ID)
	if second.Status != jobDone {
		t.Fatalf("warm frontier job %q (%s), want done", second.Status, second.Error)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("warm-start frontier summary differs:\n%s\nvs\n%s", second.Result, first.Result)
	}
	checkReplayedOnly(t, runner2)
	if got := runner2.Metrics().Snapshot().Counters["trace_cache_captures"]; got != 0 {
		t.Errorf("warm restart captured %d traces, want 0", got)
	}
}
