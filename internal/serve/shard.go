package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
)

// The /v1/shard API is the fabric-internal contract between coordinator and
// worker, and the coordinator's only way to hand a worker work. A shard is
// named "<parent>/shard-<n>" by the coordinator and carries exactly one kind
// of work: a slice of a sweep (combos), one frontier request or one
// attribution request. The worker validates it with the code its public
// handler uses, runs the job a local request would run, synchronously on
// the request, and answers with the shard's resolved records or the job's
// result. Synchronous dispatch is what makes the failure model simple — a
// worker dying mid-shard tears down the coordinator's POST, which is the
// re-dispatch signal; no heartbeats, leases or acknowledgement protocol
// needed. While it runs, the shard is an ordinary registry job on the
// worker: visible under its fan-out id via GET /v1/jobs/{id} (the
// coordinator polls it for parent progress) and cancelable via DELETE.

// shardCombo names one (program, input, config) of a sweep shard. The
// device rides on shardRequest — a shard never spans devices, because the
// ring key includes the device and the coordinator shards per sweep request.
type shardCombo struct {
	Program string `json:"program"`
	Input   string `json:"input"`
	Config  string `json:"config"`
}

// shardRequest is the POST /v1/shard body. Exactly one of Combos, Frontier
// and Attrib is set.
type shardRequest struct {
	// ID is the coordinator-assigned "<parent>/shard-<n>" job id.
	ID string `json:"id"`
	// Device is the GPU profile shared by every combo; empty means the K20c.
	Device string       `json:"device,omitempty"`
	Combos []shardCombo `json:"combos,omitempty"`
	// Frontier and Attrib carry a canonical public request.
	Frontier *frontierRequest `json:"frontier,omitempty"`
	Attrib   *attribRequest   `json:"attrib,omitempty"`
}

// shardResponse is the POST /v1/shard success body.
type shardResponse struct {
	ID string `json:"id"`
	// Results answers a sweep shard: one record per combo in deterministic
	// result order — exclusions (insufficient samples) included, exactly as
	// /v1/results would report them.
	Results []core.Result `json:"results,omitempty"`
	// Result answers a frontier or attribution shard: the job's result
	// payload, which the coordinator re-serves byte for byte.
	Result json.RawMessage `json:"result,omitempty"`
}

// handleShard runs a coordinator-dispatched shard synchronously. The
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
	var spec jobSpec
	var combos []core.Combo
	switch {
	case req.Frontier != nil && req.Attrib == nil && len(req.Combos) == 0:
		fw, status, err := s.res.frontier(*req.Frontier)
		if err != nil {
			writeError(w, status, err.Error())
			return
		}
		spec = s.exec.frontier(fw)
	case req.Attrib != nil && req.Frontier == nil && len(req.Combos) == 0:
		aw, err := s.res.attrib(*req.Attrib)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		spec = s.exec.attrib(aw)
	case len(req.Combos) > 0 && req.Frontier == nil && req.Attrib == nil:
		combos = make([]core.Combo, 0, len(req.Combos))
		for _, c := range req.Combos {
			p, clk, input, err := s.res.resolve(c.Program, c.Input, c.Config, req.Device)
			if err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			combos = append(combos, core.Combo{Program: p, Input: input, Clocks: clk})
		}
		var err error
		if spec, err = s.exec.sweep(r.Context(), combos[0].Clocks.Device(), combos); err != nil {
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
	default:
		writeError(w, http.StatusBadRequest, "a shard carries exactly one of combos, frontier and attrib")
		return
	}

	spec.id = req.ID
	_, result, err := s.jobs.runSync(r.Context(), spec)
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	resp := shardResponse{ID: req.ID}
	if combos == nil {
		if resp.Result, err = json.Marshal(result); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Results = make([]core.Result, 0, len(combos))
	for _, c := range combos {
		rec, ok := s.runner.Lookup(c)
		if !ok {
			// MeasureList returned nil yet a combo is unresolved: impossible
			// unless the cache was mutated concurrently; fail loudly rather
			// than hand the coordinator a silent hole.
			writeError(w, http.StatusInternalServerError,
				fmt.Sprintf("shard %s: combo %s/%s@%s missing after measurement", req.ID, c.Program.Name(), c.Input, c.Clocks.Name))
			return
		}
		resp.Results = append(resp.Results, rec)
	}
	core.SortResults(resp.Results)
	writeJSON(w, http.StatusOK, resp)
}
