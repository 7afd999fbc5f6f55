package serve

import (
	"net/http"

	"repro/internal/core"
	"repro/internal/kepler"
)

// attribRequest is the POST /v1/attrib body. Attribution walks each
// program's default input, so the request selects programs, configurations
// and the device — the same selection shape as a sweep.
type attribRequest struct {
	// Programs restricts the attribution; empty means every served program.
	Programs []string `json:"programs,omitempty"`
	// Configs restricts the configurations; empty means all of them (on a
	// non-K20c device: its four canonical configurations).
	Configs []string `json:"configs,omitempty"`
	// Device selects the GPU profile; empty means the K20c.
	Device string `json:"device,omitempty"`
}

// attribSummary is the attribution job's result payload.
type attribSummary struct {
	Device string                    `json:"device"`
	Combos int                       `json:"combos"`
	Rows   []core.ProgramAttribution `json:"rows"`
}

// attribWork is a validated attribution request: the canonical request
// (every selection spelled out by name) and what it resolved to.
type attribWork struct {
	req      attribRequest
	programs []core.Program
	dev      *kepler.Device
	configs  []kepler.Clocks
}

// handleAttrib starts an asynchronous instruction-level energy-attribution
// job over the selected (program, config) matrix; the completed job's view
// carries the attribution rows.
func (s *Server) handleAttrib(w http.ResponseWriter, r *http.Request) {
	var req attribRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	aw, err := s.res.attrib(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.startJob(w, s.exec.attrib(aw))
}

// attrib validates an attribution request, for the public handler and for a
// worker's attribution shard alike. Every rejection is a 400.
func (res *resolver) attrib(req attribRequest) (attribWork, error) {
	programs, dev, configs, err := res.sweepSet(sweepRequest{
		Programs: req.Programs, Configs: req.Configs, Device: req.Device,
	})
	if err != nil {
		return attribWork{}, err
	}
	aw := attribWork{req: attribRequest{Device: dev.Name}, programs: programs, dev: dev, configs: configs}
	for _, p := range programs {
		aw.req.Programs = append(aw.req.Programs, p.Name())
	}
	for _, clk := range configs {
		aw.req.Configs = append(aw.req.Configs, clk.Name)
	}
	return aw, nil
}
