package serve

import (
	"context"
	"net/http"

	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/kepler"
	"repro/internal/promtext"
)

// local is the executor of the standalone and worker roles: it runs every
// request on the Server's own Runner.
type local struct {
	runner *core.Runner
	jobs   *jobRegistry
}

// measure holds one worker-pool slot per in-flight measurement, exactly
// like a MeasureAll job: the service never runs more simulations than the
// runner's worker budget. Cache hits pass through quickly because resolved
// entries return without simulating.
func (l *local) measure(ctx context.Context, w http.ResponseWriter, cb core.Combo) {
	pool := l.runner.WorkerPool()
	if err := pool.Acquire(ctx); err != nil {
		writeMeasureError(w, err)
		return
	}
	defer pool.Release(1)
	writeMeasure(ctx, w, l.runner, cb)
}

// sweep measures the combinations with MeasureList; the results land in the
// cache and are read via /v1/results.
func (l *local) sweep(_ context.Context, _ *kepler.Device, combos []core.Combo) (jobSpec, error) {
	return jobSpec{
		combos:   len(combos),
		progress: l.jobs.sweepProgress,
		run: func(ctx context.Context, _ string) (any, error) {
			return nil, l.runner.MeasureList(ctx, combos)
		},
	}, nil
}

// frontier sweeps the grid; progress is the replayed grid-point count from
// the obs registry.
func (l *local) frontier(fw frontierWork) jobSpec {
	replays := l.runner.Metrics().Counter("frontier_replays")
	return jobSpec{
		combos:   fw.size,
		progress: func() (int64, int64) { return replays.Value(), 0 },
		run: func(ctx context.Context, _ string) (any, error) {
			res, err := frontier.Sweep(ctx, l.runner, fw.p, frontier.Options{Device: fw.dev, Spec: fw.spec, Input: fw.req.Input})
			if err != nil {
				return nil, err
			}
			return summarizeFrontier(res), nil
		},
	}
}

// attrib prices each (program, config) of the matrix at the program's
// default input with core.AttributionSweep. Attribution is a post-processing
// pass over the launch-trace cache: on a warm store every combination
// replays instead of simulating. Progress is the attrib_rows
// delta from the obs registry.
func (l *local) attrib(aw attribWork) jobSpec {
	rows := l.runner.Metrics().Counter("attrib_rows")
	return jobSpec{
		combos:   len(aw.programs) * len(aw.configs),
		progress: func() (int64, int64) { return rows.Value(), 0 },
		run: func(ctx context.Context, _ string) (any, error) {
			res, err := core.AttributionSweep(ctx, l.runner, aw.programs, aw.configs)
			if err != nil {
				return nil, err
			}
			return &attribSummary{Device: aw.dev.Name, Combos: len(res), Rows: res}, nil
		},
	}
}

// metrics exposes the runner's registry.
func (l *local) metrics(context.Context) ([]promtext.Family, error) {
	return l.runner.Metrics().PromFamilies(), nil
}

// workers is 0: a local executor has no fleet.
func (l *local) workers(context.Context) int { return 0 }
