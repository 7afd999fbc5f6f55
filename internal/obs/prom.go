package obs

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/promtext"
)

// Prometheus exposition of the registry. The JSON snapshot (Snapshot,
// WriteJSON) stays the canonical machine-readable dump and its shape is
// frozen; this file renders the same state in the text exposition format
// 0.0.4 for Prometheus scrapes, following the kepler-exporter conventions:
// a single namespace prefix, counters ending in _total, and one family per
// logical metric with dimensions as labels (the per-device simulate
// counters collapse into one gpuchard_simulate_runs_total{device="..."}
// family instead of a name per device).

// promNamespace prefixes every exposed metric name.
const promNamespace = "gpuchard_"

// deviceCounterPrefix is the registry-name prefix of the lazily created
// per-device simulation counters (see runnerMetrics.simulateRun); the
// exposition rewrites them into a device-labeled family.
const deviceCounterPrefix = "simulate_runs_device_"

// promHelp documents the metrics surfaced on dashboards; names not listed
// get a generic docstring derived from the registry name.
var promHelp = map[string]string{
	"measure_cache_hits":         "Measure calls served from the resolved result cache.",
	"measure_cache_misses":       "Measure calls that created a cache entry and computed it.",
	"measure_singleflight_waits": "Measure calls that joined an in-flight computation of the same key.",
	"sweep_jobs_total":           "Sweep combinations enqueued by MeasureList (sweeps, experiments, checks, frontier grids).",
	"sweep_jobs_done":            "Sweep combinations completed (measured, cached or excluded).",
	"sweep_jobs_canceled":        "Sweep combinations aborted by cancellation.",
	"trace_cache_captures":       "Launch traces captured by full simulation.",
	"trace_cache_replays":        "Measured devices priced by replaying a launch trace (every measurement is one).",
	"trace_cache_bytes":          "Bytes retained by the launch-trace cache.",
	"trace_broker_fetch_hits":    "Launch traces fetched from the fleet trace broker instead of simulating.",
	"trace_broker_fetch_misses":  "Trace broker fetches that found no fleet-wide capture.",
	"trace_broker_puts":          "Launch traces published to the fleet trace broker.",
	"trace_broker_errors":        "Trace broker transport or decode failures (fell back to local capture).",
	"simulate_runs":              "Full warp-level simulations, by device.",
	"pool_workers_budget":        "Size of the shared simulation worker pool.",
	"pool_workers_in_use":        "Worker-pool slots currently held.",
	"pool_workers_in_use_peak":   "High-water mark of held worker-pool slots.",
	"frontier_replays":           "Frontier grid configurations priced by trace replay.",
	"attrib_rows":                "Attribution rows (program x configuration) priced by AttributionSweep.",
	"fabric_workers_ready":       "Workers currently passing the coordinator's readiness probe.",
	"fabric_shards_dispatched":   "Shards (sweep slices, frontier and attribution jobs) dispatched to workers.",
	"fabric_shard_redispatches":  "Shards and measures moved to another worker after one could not answer.",
	"fabric_sweep_fanouts":       "Sweep requests fanned out across the fleet.",
	"fabric_frontier_proxied":    "Frontier jobs proxied to a worker.",
	"fabric_attrib_proxied":      "Attribution jobs proxied to a worker.",
	"fabric_measure_proxied":     "Measure requests proxied to a worker.",
	"trace_store_traces":         "Launch traces held by the coordinator's broker store.",
	"trace_store_bytes":          "Bytes held by the coordinator's broker store.",
	"trace_store_gets":           "Trace fetches served by the broker store.",
	"trace_store_hits":           "Trace fetches that found a stored capture.",
	"trace_store_puts":           "Traces accepted into the broker store.",
}

func helpFor(name string) string {
	if h, ok := promHelp[name]; ok {
		return h
	}
	if h, ok := promHelp[strings.TrimSuffix(name, "_total")]; ok {
		return h
	}
	return "gpuchard " + strings.ReplaceAll(name, "_", " ") + "."
}

// promCounterName maps a registry counter name to its exposed family name,
// enforcing the Prometheus counter convention of a _total suffix.
func promCounterName(name string) string {
	name = strings.TrimSuffix(name, "_total")
	return promNamespace + name + "_total"
}

// PromFamilies renders the registry's current state as exposition-format
// metric families, sorted by family name, with the given labels attached
// to every sample. Deterministic for a given registry state.
func (r *Registry) PromFamilies(labels ...promtext.Label) []promtext.Family {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	base := append([]promtext.Label(nil), labels...)
	var out []promtext.Family

	// Per-device simulate counters become one device-labeled family.
	var deviceNames []string
	for name := range counters {
		if strings.HasPrefix(name, deviceCounterPrefix) {
			deviceNames = append(deviceNames, strings.TrimPrefix(name, deviceCounterPrefix))
		}
	}
	if len(deviceNames) > 0 {
		sort.Strings(deviceNames)
		f := promtext.Family{
			Name: promCounterName("simulate_runs"),
			Type: "counter",
			Help: helpFor("simulate_runs"),
		}
		for _, dev := range deviceNames {
			c := counters[deviceCounterPrefix+dev]
			f.Samples = append(f.Samples, promtext.Sample{
				Labels: append(append([]promtext.Label(nil), base...), promtext.Label{Name: "device", Value: dev}),
				Value:  strconv.FormatInt(c.Value(), 10),
			})
		}
		out = append(out, f)
	}

	counterNames := make([]string, 0, len(counters))
	for name := range counters {
		if !strings.HasPrefix(name, deviceCounterPrefix) {
			counterNames = append(counterNames, name)
		}
	}
	sort.Strings(counterNames)
	for _, name := range counterNames {
		out = append(out, promtext.Family{
			Name: promCounterName(name),
			Type: "counter",
			Help: helpFor(name),
			Samples: []promtext.Sample{{
				Labels: base,
				Value:  strconv.FormatInt(counters[name].Value(), 10),
			}},
		})
	}

	gaugeNames := make([]string, 0, len(gauges))
	for name := range gauges {
		gaugeNames = append(gaugeNames, name)
	}
	sort.Strings(gaugeNames)
	for _, name := range gaugeNames {
		out = append(out, promtext.Family{
			Name: promNamespace + name,
			Type: "gauge",
			Help: helpFor(name),
			Samples: []promtext.Sample{{
				Labels: base,
				Value:  strconv.FormatInt(gauges[name].Value(), 10),
			}},
		})
	}

	histNames := make([]string, 0, len(hists))
	for name := range hists {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		out = append(out, promHistogram(promNamespace+name, helpFor(name), hists[name], base))
	}

	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// promHistogram renders one histogram as a cumulative-bucket family. The
// registry's buckets are exponential in microseconds (bucket i counts
// [2^i µs, 2^(i+1) µs)), so the cumulative "le" bound of bucket i is
// 2^(i+1) µs, expressed in seconds. A count may land in a bucket a beat
// before the total count is visible (Observe's adds are not one atomic
// transaction), so the +Inf bucket and _count are pinned to whichever is
// larger — cumulative buckets stay non-decreasing and the exposition lints
// clean even when scraped mid-observation.
func promHistogram(name, help string, h *Histogram, base []promtext.Label) promtext.Family {
	f := promtext.Family{Name: name, Type: "histogram", Help: help}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		le := float64(int64(1)<<uint(i+1)) / 1e6 // bucket upper bound in seconds
		f.Samples = append(f.Samples, promtext.Sample{
			Suffix: "_bucket",
			Labels: append(append([]promtext.Label(nil), base...), promtext.Label{Name: "le", Value: promtext.FormatValue(le)}),
			Value:  strconv.FormatInt(cum, 10),
		})
	}
	count := h.count.Load()
	if count < cum {
		count = cum
	}
	f.Samples = append(f.Samples,
		promtext.Sample{
			Suffix: "_bucket",
			Labels: append(append([]promtext.Label(nil), base...), promtext.Label{Name: "le", Value: "+Inf"}),
			Value:  strconv.FormatInt(count, 10),
		},
		promtext.Sample{
			Suffix: "_sum",
			Labels: base,
			Value:  promtext.FormatValue(h.Sum().Seconds()),
		},
		promtext.Sample{
			Suffix: "_count",
			Labels: base,
			Value:  strconv.FormatInt(count, 10),
		},
	)
	return f
}
