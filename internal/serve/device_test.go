package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/promtext"
)

// End-to-end coverage of the request-level device dimension: the `device`
// field must round-trip through measure, sweep and frontier jobs, unknown
// names must be 400s, and /metrics must attribute simulations per device.

func TestMeasureDeviceRoundTrip(t *testing.T) {
	s, _ := newTestServer(t, Config{}, newFakeProg("FAKE", 2e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type resp struct {
		Board      string  `json:"board"`
		Config     string  `json:"config"`
		ActiveTime float64 `json:"activeTime"`
		Energy     float64 `json:"energy"`
	}
	measure := func(body string) resp {
		t.Helper()
		code, data := postJSON(t, ts.URL+"/v1/measure", body)
		if code != http.StatusOK {
			t.Fatalf("measure %s: status %d, body %s", body, code, data)
		}
		var r resp
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	k20 := measure(`{"program":"FAKE"}`)
	if k20.Board != "K20c" {
		t.Errorf("default board = %q, want K20c", k20.Board)
	}
	pascal := measure(`{"program":"FAKE","device":"GTX1080"}`)
	if pascal.Board != "GTX1080" || pascal.Config != "default" {
		t.Errorf("device round trip lost: board %q config %q", pascal.Board, pascal.Config)
	}
	if pascal.ActiveTime == k20.ActiveTime || pascal.Energy == k20.Energy {
		t.Errorf("GTX1080 result equals K20c result: %+v", pascal)
	}
	// Case-insensitive, like the CLI.
	if got := measure(`{"program":"FAKE","device":"jetsontx2"}`); got.Board != "JetsonTX2" {
		t.Errorf("jetsontx2 board = %q", got.Board)
	}
	// A named device config resolves against that device's ladder.
	if got := measure(`{"program":"FAKE","device":"GTX1080","config":"614"}`); got.Board != "GTX1080" {
		t.Errorf("config on device: board = %q", got.Board)
	}

	// Unknown names are client errors.
	for _, body := range []string{
		`{"program":"FAKE","device":"GTX9000"}`,
		`{"program":"FAKE","device":"GTX1080","config":"nope"}`,
	} {
		code, data := postJSON(t, ts.URL+"/v1/measure", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", body, code, data)
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(e.Error, "unknown") {
			t.Errorf("%s: error %q", body, e.Error)
		}
	}

	// The per-device simulate counters surface on /metrics as one
	// device-labeled family.
	fams := scrapeMetrics(t, ts.URL, "")
	for _, dev := range []string{"K20c", "GTX1080", "JetsonTX2"} {
		if got := promValue(fams, "gpuchard_simulate_runs_total", "", promtext.Label{Name: "device", Value: dev}); got == "" || got == "0" {
			t.Errorf(`/metrics gpuchard_simulate_runs_total{device=%q} = %q, want > 0`, dev, got)
		}
	}
}

func TestSweepDeviceRoundTrip(t *testing.T) {
	s, runner := newTestServer(t, Config{}, newFakeProg("FAKE", 2e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v1/sweep", `{"programs":["FAKE"],"device":"JetsonTX2"}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep: status %d, body %s", code, body)
	}
	var jv jobView
	if err := json.Unmarshal(body, &jv); err != nil {
		t.Fatal(err)
	}
	if jv.Combinations != 4 {
		t.Errorf("sweep over the Jetson canonical set has %d combinations, want 4", jv.Combinations)
	}
	waitJobDone(t, ts.URL, jv.ID)

	// The sweep populated the runner cache under the Jetson's device key:
	// per-device counters prove all four simulations ran on the Jetson.
	snap := runner.Metrics().Snapshot()
	if got := snap.Counters["simulate_runs_device_JetsonTX2"]; got == 0 {
		t.Error("sweep simulated nothing on the JetsonTX2")
	}
	if got := snap.Counters["simulate_runs_device_K20c"]; got != 0 {
		t.Errorf("Jetson sweep simulated %d K20c runs", got)
	}

	// Named configs resolve on the device; unknown ones are 400s.
	code, body = postJSON(t, ts.URL+"/v1/sweep", `{"programs":["FAKE"],"device":"JetsonTX2","configs":["614"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep named config: status %d, body %s", code, body)
	}
	if err := json.Unmarshal(body, &jv); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, ts.URL, jv.ID)

	for _, req := range []string{
		`{"programs":["FAKE"],"device":"nope"}`,
		`{"programs":["FAKE"],"device":"JetsonTX2","configs":["758"]}`,
	} {
		code, body = postJSON(t, ts.URL+"/v1/sweep", req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", req, code, body)
		}
	}
}

func TestFrontierDeviceRoundTrip(t *testing.T) {
	s, _ := newTestServer(t, Config{}, newFakeProg("FAKE", 2e5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A reduced Pascal grid: 3 core clocks on the top memory row.
	spec := `{"coreMinMHz":1200,"coreMaxMHz":1600,"coreStepMHz":200,"memMHz":[10000]}`
	code, body := postJSON(t, ts.URL+"/v1/frontier",
		`{"program":"FAKE","device":"GTX1080","spec":`+spec+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("frontier: status %d, body %s", code, body)
	}
	var jv frontierJobView
	if err := json.Unmarshal(body, &jv); err != nil {
		t.Fatal(err)
	}
	done := pollFrontierJob(t, ts.URL, jv.ID)
	if done.Status != jobDone {
		t.Fatalf("frontier job: %+v", done)
	}
	// The sweet spots must be GTX1080 operating points, never K20c clock
	// pairs: the grid was built from the Pascal ladder.
	type pointView struct {
		Config  string `json:"config"`
		CoreMHz int    `json:"coreMHz"`
		MemMHz  int    `json:"memMHz"`
	}
	var res struct {
		GridConfigs int        `json:"gridConfigs"`
		Measurable  int        `json:"measurable"`
		Default     *pointView `json:"default"`
		EDP         *pointView `json:"edpSweetSpot"`
		ED2P        *pointView `json:"ed2pSweetSpot"`
	}
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.GridConfigs == 0 || res.Measurable == 0 {
		t.Fatalf("empty frontier summary: %s", done.Result)
	}
	for name, pt := range map[string]*pointView{"default": res.Default, "edp": res.EDP, "ed2p": res.ED2P} {
		if pt == nil {
			continue
		}
		if pt.MemMHz == 2600 || pt.CoreMHz == 705 {
			t.Errorf("%s: K20c clock pair %d/%d leaked into the GTX1080 grid", name, pt.CoreMHz, pt.MemMHz)
		}
	}
	if res.Default == nil || res.Default.CoreMHz != 1607 {
		t.Errorf("default point %+v is not the GTX1080 default", res.Default)
	}

	code, body = postJSON(t, ts.URL+"/v1/frontier", `{"program":"FAKE","device":"nope"}`)
	if code != http.StatusBadRequest {
		t.Errorf("unknown device: status %d, body %s", code, body)
	}
}

// waitJobDone polls a plain sweep job until it terminates, failing the test
// on any terminal state but success.
func waitJobDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := getJSON(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job poll: status %d, body %s", code, body)
		}
		var jv jobView
		if err := json.Unmarshal(body, &jv); err != nil {
			t.Fatal(err)
		}
		switch jv.Status {
		case jobDone:
			return
		case jobFailed, jobCanceled:
			t.Fatalf("job %s: %+v", id, jv)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", jv)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
