package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sim"
)

// SimulatedDevice returns the completed simulated device for one (program,
// input, configuration) combination through the measurement pipeline's
// simulate stage: the pair's launch trace — cached, brokered or captured
// now — replayed at the configuration. It is the very device a full
// measurement of the combination prices, and it fails like one, e.g. on a
// program that reads the simulated clock mid-run; callers (the attribution
// pass, the selfcheck tie-outs) consume it read-only.
func (r *Runner) SimulatedDevice(ctx context.Context, p Program, input string, clk kepler.Clocks) (*sim.Device, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := &measureState{ctx: ctx, p: p, input: input, clk: clk}
	m := r.metricsHandles()
	start := time.Now()
	err := r.stageSimulate(st)
	m.stageHist[StageSimulate].Observe(time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("%s/%s@%s: %s: %w", p.Name(), input, clk.Name, StageSimulate, err)
	}
	return st.dev, nil
}

// ProgramAttribution is one program's instruction-level energy breakdown at
// one configuration.
type ProgramAttribution struct {
	Program     string             `json:"program"`
	Input       string             `json:"input"`
	Attribution *power.Attribution `json:"attribution"`
}

// AttributionSweep attributes every program's default input at every given
// configuration, in deterministic (program, config) order. On a warm
// launch-trace cache (or through a broker) it costs zero simulations —
// attribution is a post-processing pass over replayed traces. Each
// finished row bumps the runner's attrib_rows counter, the progress source
// of attribution jobs.
func AttributionSweep(ctx context.Context, r *Runner, programs []Program, configs []kepler.Clocks) ([]ProgramAttribution, error) {
	done := r.Metrics().Counter("attrib_rows")
	var rows []ProgramAttribution
	for _, p := range programs {
		for _, clk := range configs {
			dev, err := r.SimulatedDevice(ctx, p, p.DefaultInput(), clk)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ProgramAttribution{
				Program:     p.Name(),
				Input:       p.DefaultInput(),
				Attribution: power.Attribute(dev),
			})
			done.Inc()
		}
	}
	return rows, nil
}
