package core

import (
	"context"

	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sim"
)

// SimulatedDevice returns the priced device for one (program, input,
// configuration) combination through the measurement pipeline's simulate
// stage: the pair's launch trace — cached, brokered or captured now —
// replayed at the configuration. It is the very device a full measurement
// of the combination prices, and it fails like one; callers (the
// attribution pass, the selfcheck tie-outs) consume it read-only.
func (r *Runner) SimulatedDevice(ctx context.Context, p Program, input string, clk kepler.Clocks) (*sim.Device, error) {
	return r.simulatedDevice(ctx, nil, p, input, clk)
}

// simulatedDevice is SimulatedDevice replaying into dst's storage (see
// sim.LaunchTrace.ReplayInto); nil dst hands out a fresh device.
func (r *Runner) simulatedDevice(ctx context.Context, dst *sim.Device, p Program, input string, clk kepler.Clocks) (*sim.Device, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := &measureState{ctx: ctx, p: p, input: input, clk: clk, dev: dst}
	if err := r.runStages(ctx, st, measureStages[:1]); err != nil { // simulate
		return nil, err
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
// of attribution jobs. An attribution keeps nothing of its device, so the
// sweep replays every combination into one.
func AttributionSweep(ctx context.Context, r *Runner, programs []Program, configs []kepler.Clocks) ([]ProgramAttribution, error) {
	done := r.Metrics().Counter("attrib_rows")
	var rows []ProgramAttribution
	var dev *sim.Device
	var err error
	for _, p := range programs {
		for _, clk := range configs {
			if dev, err = r.simulatedDevice(ctx, dev, p, p.DefaultInput(), clk); err != nil {
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
