package core

import (
	"sync"

	"repro/internal/obs"
)

// runnerMetrics holds the pre-resolved metric handles the Runner's hot
// paths record into, so instrumenting a measurement costs a few atomic
// adds and never allocates or takes the registry lock.
type runnerMetrics struct {
	reg *obs.Registry

	// Cache traffic of Measure: a hit found a resolved entry (including
	// store-loaded ones), a miss created the entry and computed it, a
	// singleflight wait joined an entry another goroutine was computing.
	cacheHits         *obs.Counter
	cacheMisses       *obs.Counter
	singleflightWaits *obs.Counter

	// Sweep progress of MeasureList.
	sweepJobsTotal    *obs.Counter
	sweepJobsDone     *obs.Counter
	sweepJobsCanceled *obs.Counter

	// Launch-trace cache traffic of the simulate stage: a capture simulated
	// the program with trace recording (a cache miss), a replay priced a
	// trace at one measurement's configuration (every measured device is
	// one). traceBytes accumulates the footprint of retained traces.
	traceCaptures *obs.Counter
	traceReplays  *obs.Counter
	traceBytes    *obs.Counter

	// Fleet trace-broker traffic (zero when no Broker is configured): a
	// fetch hit adopted another worker's capture instead of simulating, a
	// fetch miss fell through to a local capture, a put published a local
	// capture to the fleet.
	brokerFetchHits   *obs.Counter
	brokerFetchMisses *obs.Counter
	brokerPuts        *obs.Counter

	// Per-stage duration histograms, keyed by stage name.
	stageHist map[string]*obs.Histogram

	// Per-device simulation counts (simulate_runs_device_<name>), created
	// lazily the first time a device's configuration is simulated, so a
	// multi-device serve process shows where the simulation budget goes.
	deviceMu  sync.Mutex
	deviceSim map[string]*obs.Counter
}

// simulateRun bumps the per-device simulation counter, creating it on the
// device's first simulation.
func (m *runnerMetrics) simulateRun(device string) {
	m.deviceMu.Lock()
	c, ok := m.deviceSim[device]
	if !ok {
		c = m.reg.Counter("simulate_runs_device_" + device)
		m.deviceSim[device] = c
	}
	m.deviceMu.Unlock()
	c.Inc()
}

// Metrics returns the runner's observability registry, creating it on first
// use. The registry also carries the shared worker pool's utilization
// gauges (the pool is instrumented when it is created).
func (r *Runner) Metrics() *obs.Registry {
	return r.metricsHandles().reg
}

// metricsHandles lazily builds the handle set.
func (r *Runner) metricsHandles() *runnerMetrics {
	r.metricsOnce.Do(func() {
		reg := obs.NewRegistry()
		m := &runnerMetrics{
			reg:               reg,
			cacheHits:         reg.Counter("measure_cache_hits"),
			cacheMisses:       reg.Counter("measure_cache_misses"),
			singleflightWaits: reg.Counter("measure_singleflight_waits"),
			sweepJobsTotal:    reg.Counter("sweep_jobs_total"),
			sweepJobsDone:     reg.Counter("sweep_jobs_done"),
			sweepJobsCanceled: reg.Counter("sweep_jobs_canceled"),
			traceCaptures:     reg.Counter("trace_cache_captures"),
			traceReplays:      reg.Counter("trace_cache_replays"),
			traceBytes:        reg.Counter("trace_cache_bytes"),
			brokerFetchHits:   reg.Counter("trace_broker_fetch_hits"),
			brokerFetchMisses: reg.Counter("trace_broker_fetch_misses"),
			brokerPuts:        reg.Counter("trace_broker_puts"),
			stageHist:         make(map[string]*obs.Histogram, len(StageNames)),
			deviceSim:         make(map[string]*obs.Counter),
		}
		for _, name := range StageNames {
			m.stageHist[name] = reg.Histogram("stage_" + name + "_seconds")
		}
		r.metrics = m
	})
	return r.metrics
}
