package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// API parity between the two executors: a coordinator in front of three
// workers must answer every public request with the status and bytes a
// standalone server gives for the same request — proxied or cached, valid
// or rejected.

// parityProgs is the served set of the parity tests: the fabric programs
// plus one too short for the sensor (every measurement of it is a 422).
func parityProgs() []core.Program {
	return append(fabricProgs(), newFakeProg("TINY", 1))
}

// newParityPair starts a standalone server and a 3-worker coordinator over
// parityProgs, returning both base URLs, the coordinator's runner and the
// workers' URLs.
func newParityPair(t *testing.T) (standalone, coordinator string, coordRunner *core.Runner, workers []string) {
	t.Helper()
	s, _ := newTestServer(t, Config{}, parityProgs()...)
	sts := httptest.NewServer(s.Handler())
	t.Cleanup(sts.Close)
	_, urls := newFabricWorkers(t, 3, parityProgs)
	c, cts := newTestCoordinator(t, urls, parityProgs(), nil)
	return sts.URL, cts.URL, c.runner, urls
}

// TestFleetMeasureParity: a proxied 200, its cached repeat and a proxied
// 422 exclusion are byte-identical to the standalone answers.
func TestFleetMeasureParity(t *testing.T) {
	sa, co, coordRunner, _ := newParityPair(t)
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"proxied", `{"program":"FA","config":"614"}`, http.StatusOK},
		{"cached repeat", `{"program":"FA","config":"614"}`, http.StatusOK},
		{"insufficient", `{"program":"TINY"}`, http.StatusUnprocessableEntity},
	} {
		wantCode, wantBody := postJSON(t, sa+"/v1/measure", tc.body)
		if wantCode != tc.want {
			t.Fatalf("%s: standalone status %d, want %d (body %s)", tc.name, wantCode, tc.want, wantBody)
		}
		code, body := postJSON(t, co+"/v1/measure", tc.body)
		if code != wantCode || !bytes.Equal(body, wantBody) {
			t.Errorf("%s: coordinator answered %d %s\nstandalone answered %d %s", tc.name, code, body, wantCode, wantBody)
		}
	}
	// The repeat came from the coordinator's cache, not from a worker.
	if got := coordRunner.Metrics().Snapshot().Counters["fabric_measure_proxied"]; got != 2 {
		t.Errorf("fabric_measure_proxied = %d, want 2 (the repeat is a cache hit)", got)
	}
}

// TestFleetFrontierParity: the coordinator's finished frontier job carries
// the standalone job's result, byte for byte, and ran as one shard.
func TestFleetFrontierParity(t *testing.T) {
	sa, co, _, workers := newParityPair(t)
	body := `{"program":"FB","spec":` + smallSpec + `}`
	want := runResultJob(t, sa, "/v1/frontier", body)
	got := runResultJob(t, co, "/v1/frontier", body)
	if !bytes.Equal(got.Result, want.Result) {
		t.Errorf("coordinator frontier result differs:\n--- standalone ---\n%s\n--- coordinator ---\n%s", want.Result, got.Result)
	}
	// Progress reads the same on both roles: a finished job did every point.
	if got.Done != want.Done || want.Done != want.Combinations {
		t.Errorf("finished frontier job done: standalone %d, coordinator %d, want both %d (combinations)",
			want.Done, got.Done, want.Combinations)
	}
	assertOneShard(t, got, workers)
}

// assertOneShard checks that a coordinator's finished frontier or
// attribution job lists exactly one shard, done, on a fleet worker.
func assertOneShard(t *testing.T, jv frontierJobView, workers []string) {
	t.Helper()
	if len(jv.Shards) != 1 || jv.Shards[0].Status != jobDone || !slices.Contains(workers, jv.Shards[0].Worker) {
		t.Errorf("coordinator job %s shards = %+v, want one done shard on one of %v", jv.ID, jv.Shards, workers)
	}
}

// runResultJob posts a job request to route, polls the job to done and
// returns its final view.
func runResultJob(t *testing.T, base, route, body string) frontierJobView {
	t.Helper()
	code, data := postJSON(t, base+route, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST %s%s: status %d, body %s", base, route, code, data)
	}
	var jv frontierJobView
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}
	jv = pollFrontierJob(t, base, jv.ID)
	if jv.Status != jobDone {
		t.Fatalf("%s%s job: %+v", base, route, jv)
	}
	return jv
}

// TestFleetValidationParity: every rejected body gets the same status and
// error body from the coordinator as from a standalone server.
func TestFleetValidationParity(t *testing.T) {
	sa, co, _, _ := newParityPair(t)
	for _, tc := range []struct {
		name, route, body string
		want              int
	}{
		{"measure: malformed JSON", "/v1/measure", `{"program":`, http.StatusBadRequest},
		{"measure: unknown field", "/v1/measure", `{"program":"FA","frobnicate":1}`, http.StatusBadRequest},
		{"measure: unknown program", "/v1/measure", `{"program":"NOPE"}`, http.StatusBadRequest},
		{"measure: unknown device", "/v1/measure", `{"program":"FA","device":"RivaTNT"}`, http.StatusBadRequest},
		{"measure: unknown config", "/v1/measure", `{"program":"FA","config":"999"}`, http.StatusBadRequest},
		{"measure: unknown device config", "/v1/measure", `{"program":"FA","device":"GTX1080","config":"nope"}`, http.StatusBadRequest},
		{"measure: unknown input", "/v1/measure", `{"program":"FA","input":"huge"}`, http.StatusBadRequest},
		{"sweep: malformed JSON", "/v1/sweep", `not json`, http.StatusBadRequest},
		{"sweep: unknown program", "/v1/sweep", `{"programs":["NOPE"]}`, http.StatusBadRequest},
		{"sweep: unknown device", "/v1/sweep", `{"device":"RivaTNT"}`, http.StatusBadRequest},
		{"sweep: unknown config", "/v1/sweep", `{"configs":["999"]}`, http.StatusBadRequest},
		{"frontier: malformed JSON", "/v1/frontier", `{"program":`, http.StatusBadRequest},
		{"frontier: unknown program", "/v1/frontier", `{"program":"NOPE"}`, http.StatusBadRequest},
		{"frontier: unknown device", "/v1/frontier", `{"program":"FA","device":"RivaTNT"}`, http.StatusBadRequest},
		{"frontier: unknown input", "/v1/frontier", `{"program":"FA","input":"huge"}`, http.StatusBadRequest},
		{"frontier: inverted grid", "/v1/frontier", `{"program":"FA","spec":{"coreMinMHz":758,"coreMaxMHz":324,"coreStepMHz":62,"memMHz":[2600]}}`, http.StatusUnprocessableEntity},
		{"frontier: oversized grid", "/v1/frontier", `{"program":"FA","spec":{"coreMinMHz":1,"coreMaxMHz":100000,"coreStepMHz":1,"memMHz":[2600]}}`, http.StatusUnprocessableEntity},
	} {
		wantCode, wantBody := postJSON(t, sa+tc.route, tc.body)
		if wantCode != tc.want {
			t.Errorf("%s: standalone status %d, want %d (body %s)", tc.name, wantCode, tc.want, wantBody)
		}
		code, body := postJSON(t, co+tc.route, tc.body)
		if code != wantCode || !bytes.Equal(body, wantBody) {
			t.Errorf("%s: coordinator answered %d %s\nstandalone answered %d %s", tc.name, code, body, wantCode, wantBody)
		}
	}
}

// TestFleetAttribParity: /v1/attrib works through the coordinator, the
// finished job's result is the standalone job's, byte for byte, and it ran
// as one shard.
func TestFleetAttribParity(t *testing.T) {
	sa, co, _, workers := newParityPair(t)
	body := `{"programs":["FA","FC"],"configs":["614","default"]}`
	want := runResultJob(t, sa, "/v1/attrib", body).Result
	got := runResultJob(t, co, "/v1/attrib", body)
	if !bytes.Equal(got.Result, want) {
		t.Errorf("coordinator attrib result differs:\n--- standalone ---\n%s\n--- coordinator ---\n%s", want, got.Result)
	}
	assertOneShard(t, got, workers)
	for _, bad := range []string{`{"programs":["NOPE"]}`, `{"configs":["999"]}`, `{"device":"RivaTNT"}`, `not json`} {
		wantCode, wantBody := postJSON(t, sa+"/v1/attrib", bad)
		code, data := postJSON(t, co+"/v1/attrib", bad)
		if wantCode != http.StatusBadRequest || code != wantCode || !bytes.Equal(data, wantBody) {
			t.Errorf("attrib %s: coordinator answered %d %s\nstandalone answered %d %s", bad, code, data, wantCode, wantBody)
		}
	}
}

// brokenProg is a program whose every run fails: a pipeline failure that no
// other worker can fix.
type brokenProg struct{ *fakeProg }

func (brokenProg) Run(context.Context, *sim.GPU, string) error {
	return errors.New("kernel launch failed")
}

// TestFleetPipelineFailureNotRetried: a shard that fails in the pipeline (a
// 500 from /v1/shard) fails the sweep at once. It is dispatched exactly
// once, and each worker measures only its own shard.
func TestFleetPipelineFailureNotRetried(t *testing.T) {
	progs := func() []core.Program { return []core.Program{brokenProg{newFakeProg("BROKEN", 2e5)}} }
	ws, urls := newFabricWorkers(t, 3, progs)
	c, cts := newTestCoordinator(t, urls, progs(), nil)

	code, data := postJSON(t, cts.URL+"/v1/sweep", `{"programs":["BROKEN"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep: status %d, body %s", code, data)
	}
	var jv jobView
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}
	pollFrontierJob(t, cts.URL, jv.ID) // waits for a terminal state
	code, data = getJSON(t, cts.URL+"/v1/jobs/"+jv.ID)
	if code != http.StatusOK {
		t.Fatalf("job view: status %d, body %s", code, data)
	}
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}
	if jv.Status != jobFailed {
		t.Fatalf("sweep of a broken program ended %s, want failed", jv.Status)
	}

	perWorker := make(map[string]int64)
	for _, sh := range jv.Shards {
		perWorker[sh.Worker] += sh.Combinations
	}
	if got := c.runner.Metrics().Snapshot().Counters["fabric_shards_dispatched"]; got != int64(len(jv.Shards)) {
		t.Errorf("fabric_shards_dispatched = %d, want %d (one per shard)", got, len(jv.Shards))
	}
	for _, w := range ws {
		if got := w.runner.Metrics().Snapshot().Counters["sweep_jobs_total"]; got != perWorker[w.ts.URL] {
			t.Errorf("worker %s: sweep_jobs_total = %d, want its shard's %d", w.ts.URL, got, perWorker[w.ts.URL])
		}
	}
}

// TestShardCarriesOneKindOfWork: a worker takes a shard with exactly one of
// combos, frontier and attrib, and rejects the frontier and attribution
// kinds with the statuses of their public handlers.
func TestShardCarriesOneKindOfWork(t *testing.T) {
	ws, _ := newFabricWorkers(t, 1, fabricProgs)
	const combo = `"combos":[{"program":"FA","input":"small","config":"614"}]`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"no id", `{` + combo + `}`, http.StatusBadRequest},
		{"no work", `{"id":"p/shard-0"}`, http.StatusBadRequest},
		{"combos and frontier", `{"id":"p/shard-0",` + combo + `,"frontier":{"program":"FA"}}`, http.StatusBadRequest},
		{"frontier and attrib", `{"id":"p/shard-0","frontier":{"program":"FA"},"attrib":{}}`, http.StatusBadRequest},
		{"combos and attrib", `{"id":"p/shard-0",` + combo + `,"attrib":{}}`, http.StatusBadRequest},
		{"unknown attrib program", `{"id":"p/shard-0","attrib":{"programs":["NOPE"]}}`, http.StatusBadRequest},
		{"inverted frontier grid", `{"id":"p/shard-0","frontier":{"program":"FA","spec":{"coreMinMHz":758,"coreMaxMHz":324,"coreStepMHz":62,"memMHz":[2600]}}}`, http.StatusUnprocessableEntity},
		{"combos", `{"id":"p/shard-0",` + combo + `}`, http.StatusOK},
		{"attrib", `{"id":"p/shard-1","attrib":{"programs":["FA"],"configs":["614"]}}`, http.StatusOK},
	} {
		if code, body := postJSON(t, ws[0].ts.URL+"/v1/shard", tc.body); code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, code, tc.want, body)
		}
	}
}
