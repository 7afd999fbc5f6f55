package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// HTTPTraceBroker shares launch traces fleet-wide through a coordinator's
// trace store (GET/PUT /v1/traces/{device}/{program}/{input}). A worker
// wires it into its Runner (core.Runner.Broker); the first worker to
// capture a (device, program, input) publishes the trace, every other
// worker adopts it instead of simulating the capture run itself — replay is
// bit-identical, so the fleet's results cannot depend on who captured.
//
// The broker is strictly best-effort: every failure (coordinator down,
// transport error, undecodable payload) degrades to "no trace", which the
// simulate stage answers with a local capture. A broken broker can cost
// duplicate captures, never correctness.
type HTTPTraceBroker struct {
	base   string
	client *http.Client
	errs   *obs.Counter
}

// NewHTTPTraceBroker builds a broker against the coordinator at base
// (e.g. "http://coordinator:8080"). Errors are counted into reg as
// trace_broker_errors.
func NewHTTPTraceBroker(base string, reg *obs.Registry) *HTTPTraceBroker {
	return &HTTPTraceBroker{
		base:   base,
		client: &http.Client{Timeout: 30 * time.Second},
		errs:   reg.Counter("trace_broker_errors"),
	}
}

var _ core.TraceBroker = (*HTTPTraceBroker)(nil)

// traceURL addresses one (device, program, input) in the store. Each part
// is path-escaped independently, so names with slashes or spaces round-trip.
func (b *HTTPTraceBroker) traceURL(device, program, input string) string {
	return b.base + "/v1/traces/" +
		url.PathEscape(device) + "/" + url.PathEscape(program) + "/" + url.PathEscape(input)
}

// FetchTrace asks the store for the pair's trace. Nil means "not there"
// (404) or "unreachable/undecodable" — the caller captures locally either
// way.
func (b *HTTPTraceBroker) FetchTrace(device, program, input string) *sim.LaunchTrace {
	resp, err := b.client.Get(b.traceURL(device, program, input))
	if err != nil {
		b.errs.Inc()
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		b.errs.Inc()
		return nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxTraceBytes))
	if err != nil {
		b.errs.Inc()
		return nil
	}
	tr, err := sim.DecodeTrace(data)
	if err != nil {
		b.errs.Inc()
		return nil
	}
	return tr
}

// StoreTrace publishes a locally captured trace. Only replayable captures
// are published: a program that reads the simulated clock mid-run fails
// its measurement instead.
func (b *HTTPTraceBroker) StoreTrace(device, program, input string, tr *sim.LaunchTrace) {
	data, err := sim.EncodeTrace(tr)
	if err != nil {
		b.errs.Inc()
		return
	}
	req, err := http.NewRequest(http.MethodPut, b.traceURL(device, program, input), bytes.NewReader(data))
	if err != nil {
		b.errs.Inc()
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := b.client.Do(req)
	if err != nil {
		b.errs.Inc()
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		b.errs.Inc()
	}
}

// maxTraceBytes bounds a single trace payload (store PUTs and broker GETs).
// Block cycles travel run-length encoded, so the payload no longer bounds
// the decoded trace: sim.DecodeTrace's own bound (8M block cycles, what
// 64 MiB held as JSON) does.
const maxTraceBytes = 64 << 20
