package serve

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/core"
)

// The /v1/shard API is the fabric-internal contract between coordinator and
// worker: a shard is a coordinator-assigned slice of a sweep, named
// "<parent>/shard-<n>", that the worker measures synchronously on the
// request and answers with the shard's resolved records. Synchronous
// dispatch is what makes the failure model simple — a worker dying mid-shard
// tears down the coordinator's POST, which is the re-dispatch signal; no
// heartbeats, leases or acknowledgement protocol needed. While it runs, the
// shard is an ordinary registry job on the worker: visible under its fan-out
// id via GET /v1/jobs/{id} (the coordinator polls it for parent progress)
// and cancelable via DELETE.

// shardCombo names one (program, input, config) of a shard. The device
// rides on shardRequest — a shard never spans devices, because the ring key
// includes the device and the coordinator shards per sweep request.
type shardCombo struct {
	Program string `json:"program"`
	Input   string `json:"input"`
	Config  string `json:"config"`
}

// shardRequest is the POST /v1/shard body.
type shardRequest struct {
	// ID is the coordinator-assigned "<parent>/shard-<n>" job id.
	ID string `json:"id"`
	// Device is the GPU profile shared by every combo; empty means the K20c.
	Device string       `json:"device,omitempty"`
	Combos []shardCombo `json:"combos"`
}

// shardResponse is the POST /v1/shard success body.
type shardResponse struct {
	ID string `json:"id"`
	// Results carries one record per combo in deterministic result order —
	// exclusions (insufficient samples) included, exactly as /v1/results
	// would report them.
	Results []core.Record `json:"results"`
}

// handleShard measures a coordinator-dispatched shard synchronously. The
// request context is the lifeline: if the coordinator gives up (re-dispatch,
// cancel, or its own death) the POST tears down and the shard's remaining
// simulations abort at the next thread-block boundary.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req shardRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.ID == "" {
		writeError(w, http.StatusBadRequest, "shard id is required")
		return
	}
	if len(req.Combos) == 0 {
		writeError(w, http.StatusBadRequest, "shard has no combinations")
		return
	}
	combos := make([]core.Combo, 0, len(req.Combos))
	for _, c := range req.Combos {
		p, clk, input, err := s.res.resolve(c.Program, c.Input, c.Config, req.Device)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		combos = append(combos, core.Combo{Program: p, Input: input, Clocks: clk})
	}

	_, _, err := s.jobs.runSync(r.Context(), jobSpec{
		id:       req.ID,
		combos:   len(combos),
		progress: s.jobs.sweepProgress,
		run: func(ctx context.Context, _ string) (any, error) {
			return nil, s.runner.MeasureList(ctx, combos)
		},
	})
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	results := make([]core.Record, 0, len(combos))
	for _, c := range combos {
		rec, ok := s.runner.Lookup(c.Program.Name(), c.Input, c.Clocks.Name, c.Clocks.Device().Name)
		if !ok {
			// MeasureList returned nil yet a combo is unresolved: impossible
			// unless the cache was mutated concurrently; fail loudly rather
			// than hand the coordinator a silent hole.
			writeError(w, http.StatusInternalServerError,
				fmt.Sprintf("shard %s: combo %s/%s@%s missing after measurement", req.ID, c.Program.Name(), c.Input, c.Clocks.Name))
			return
		}
		results = append(results, rec)
	}
	core.SortResults(results)
	writeJSON(w, http.StatusOK, shardResponse{ID: req.ID, Results: results})
}
