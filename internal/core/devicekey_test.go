package core

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/kepler"
	"repro/internal/sim"
)

// Device keying of the measurement caches. A store warmed on the K20c must
// keep serving K20c requests without simulating, but a request for the same
// program on another profile must be a clean cold miss — fresh simulation,
// device-correct numbers — never a corrupt hit of the K20c entry. The
// launch-trace cache likewise must never replay one device's trace on
// another device's timing model.

func gtxDefault(t *testing.T) kepler.Clocks {
	t.Helper()
	gtx, err := kepler.DeviceByName("GTX1080")
	if err != nil {
		t.Fatal(err)
	}
	return gtx.DefaultConfig()
}

func TestStoreDeviceKeying(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	ctx := context.Background()
	gtxDef := gtxDefault(t)

	r := NewRunner()
	base := computeBoundToy(4000)
	k20, err := r.Measure(ctx, base, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SaveStore(path); err != nil {
		t.Fatal(err)
	}

	// Fresh runner, warm store: the K20c request must not simulate at all,
	// the Pascal request must.
	calls := 0
	spy := &toyProgram{
		name:  base.name,
		suite: base.suite,
		run: func(dev *sim.Device) error {
			calls++
			return base.run(dev)
		},
	}
	r2 := NewRunner()
	if err := r2.LoadStore(path); err != nil {
		t.Fatal(err)
	}
	got, err := r2.Measure(ctx, spy, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("K20c request simulated %d times despite warm K20c store", calls)
	}
	if got.ActiveTime != k20.ActiveTime || got.Energy != k20.Energy {
		t.Errorf("warm store changed K20c values: %+v vs %+v", got, k20)
	}

	pascal, err := r2.Measure(ctx, spy, "default", gtxDef)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Pascal request served from the K20c store entry (corrupt hit)")
	}
	if pascal.ActiveTime == k20.ActiveTime || pascal.Energy == k20.Energy {
		t.Errorf("Pascal result equals the K20c result: %+v", pascal)
	}
	// The higher-clocked, wider Pascal part must finish the fixed toy
	// workload faster than the K20c.
	if pascal.ActiveTime >= k20.ActiveTime {
		t.Errorf("GTX1080 time %.3fs not below K20c %.3fs", pascal.ActiveTime, k20.ActiveTime)
	}

	// Round-trip the two-device store: both entries survive and keep their
	// devices' numbers.
	if err := r2.SaveStore(path); err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner()
	if err := r3.LoadStore(path); err != nil {
		t.Fatal(err)
	}
	calls = 0
	again, err := r3.Measure(ctx, spy, "default", gtxDef)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("Pascal entry not stored (simulated %d times)", calls)
	}
	if again.ActiveTime != pascal.ActiveTime || again.Energy != pascal.Energy {
		t.Errorf("Pascal store round trip changed values: %+v vs %+v", again, pascal)
	}
}

func TestTraceCacheDeviceKeying(t *testing.T) {
	ctx := context.Background()
	gtxDef := gtxDefault(t)

	r := NewRunner()
	r.Repetitions = 1
	p := computeBoundToy(4000)
	for _, clk := range kepler.Configs {
		if _, err := r.Measure(ctx, p, "default", clk); err != nil {
			t.Fatalf("%s: %v", clk.Name, err)
		}
	}
	snap := r.Metrics().Snapshot()
	if got := snap.Counters["trace_cache_captures"]; got != 1 {
		t.Fatalf("trace_cache_captures = %d after the K20c configs, want 1", got)
	}
	replaysAfterK20c := snap.Counters["trace_cache_replays"]
	if replaysAfterK20c != int64(len(kepler.Configs)) {
		t.Fatalf("trace_cache_replays = %d, want %d", replaysAfterK20c, len(kepler.Configs))
	}

	// The Pascal request must capture its own trace, not replay the K20c's.
	if _, err := r.Measure(ctx, p, "default", gtxDef); err != nil {
		t.Fatal(err)
	}
	snap = r.Metrics().Snapshot()
	if got := snap.Counters["trace_cache_captures"]; got != 2 {
		t.Errorf("trace_cache_captures = %d after the Pascal request, want 2 (per-device traces)", got)
	}
	if got := snap.Counters["trace_cache_replays"]; got != replaysAfterK20c+1 {
		t.Errorf("trace_cache_replays = %d after the Pascal request, want %d (its own capture's replay)", got, replaysAfterK20c+1)
	}

	// Both devices' traces are cached independently: pricing either device
	// again captures nothing, and a first Jetson request captures its own.
	jet, err := kepler.DeviceByName("JetsonTX2")
	if err != nil {
		t.Fatal(err)
	}
	for i, clk := range []kepler.Clocks{kepler.Default, gtxDef, jet.DefaultConfig()} {
		if _, err := r.SimulatedDevice(ctx, p, "default", clk); err != nil {
			t.Fatal(err)
		}
		if got, want := r.Metrics().Snapshot().Counters["trace_cache_captures"], int64(2+i/2); got != want {
			t.Errorf("trace_cache_captures = %d after %s@%s, want %d", got, clk.Device().Name, clk.Name, want)
		}
	}

	// The per-device simulate counters attribute the work correctly: one
	// capture run each.
	if got := snap.Counters["simulate_runs_device_K20c"]; got != 1 {
		t.Errorf("simulate_runs_device_K20c = %d, want 1", got)
	}
	if got := snap.Counters["simulate_runs_device_GTX1080"]; got != 1 {
		t.Errorf("simulate_runs_device_GTX1080 = %d, want 1", got)
	}
}
