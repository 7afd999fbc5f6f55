package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kepler"
	"repro/internal/sim"
)

// insensitiveToy is a clock-insensitive multi-kernel program whose launch
// trace the cache should capture once and replay at every other config.
func insensitiveToy(name string, calls *int) *toyProgram {
	return &toyProgram{
		name:  name,
		suite: SuiteSDK,
		run: func(dev *sim.Device) error {
			if calls != nil {
				*calls++
			}
			dev.SetTimeScale(100)
			data := dev.NewArray(1<<18, 4)
			l := dev.Launch("k1", 512, 256, func(c *sim.Ctx) {
				c.Load(data.At(c.TID()), 4)
				c.FP32Ops(500)
				c.Store(data.At(c.TID()), 4)
			})
			dev.Repeat(l, 3000)
			dev.HostPause(0.004)
			l2 := dev.LaunchShared("k2", 256, 128, 4096, func(c *sim.Ctx) {
				c.SharedAccessRep(uint64(c.Thread*4), 3)
				c.IntOps(200)
				c.SyncThreads()
			})
			dev.Repeat(l2, 2000)
			return nil
		},
	}
}

// orderedToy self-schedules through an Ordered launch: each block's work
// depends on an accumulator the blocks before it advanced, so its counters
// follow the block order. That order is a function of (kernel, seq) alone
// (launchSeed), so the capture replays at every configuration.
func orderedToy(name string, calls *int) *toyProgram {
	return &toyProgram{
		name:  name,
		suite: SuiteLonestar,
		run: func(dev *sim.Device) error {
			if calls != nil {
				*calls++
			}
			dev.SetTimeScale(100)
			acc := 0
			l := dev.LaunchOrdered("relax", 512, 256, func(c *sim.Ctx) {
				c.IntOps(100 + acc%7)
				c.FP32Ops(400)
				if c.Thread == 0 {
					acc = (acc*31 + c.Block) % 1009
				}
			})
			dev.Repeat(l, 4000)
			return nil
		},
	}
}

// clockReaderToy branches on the simulated clock mid-run, so its Go-side
// evolution depends on the configuration: the capture layer must mark it
// clock-sensitive.
func clockReaderToy(name string, calls *int) *toyProgram {
	return &toyProgram{
		name:  name,
		suite: SuiteLonestar,
		run: func(dev *sim.Device) error {
			if calls != nil {
				*calls++
			}
			dev.SetTimeScale(100)
			l := dev.Launch("k1", 512, 256, func(c *sim.Ctx) { c.FP32Ops(400) })
			dev.Repeat(l, 4000)
			grid := 64 + int(dev.Now()*1e3)%64
			dev.Launch("k2", grid, 256, func(c *sim.Ctx) { c.IntOps(100) })
			return nil
		},
	}
}

// measureConfigs measures p at every configuration on r, failing the test on
// any error, and returns the results in kepler.Configs order.
func measureConfigs(t *testing.T, r *Runner, p Program) []*Result {
	t.Helper()
	out := make([]*Result, len(kepler.Configs))
	for i, clk := range kepler.Configs {
		res, err := r.Measure(context.Background(), p, "default", clk)
		if err != nil {
			t.Fatalf("%s@%s: %v", p.Name(), clk.Name, err)
		}
		out[i] = res
	}
	return out
}

// TestReplayMatchesNoReplayBitIdentical is the core-layer soundness
// contract: for a clock-insensitive program, a runner serving three of the
// four configurations from the launch-trace cache must produce results
// bit-identical to a runner that simulates every configuration from scratch.
func TestReplayMatchesNoReplayBitIdentical(t *testing.T) {
	calls := 0
	r := NewRunner()
	got := measureConfigs(t, r, insensitiveToy("toy-replay", &calls))
	if calls != 1 {
		t.Errorf("replay runner ran the program %d times, want 1", calls)
	}

	fresh := NewRunner()
	fresh.NoReplay = true
	want := measureConfigs(t, fresh, insensitiveToy("toy-replay", nil))

	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: replayed result differs from fresh simulation:\ngot  %+v\nwant %+v",
				kepler.Configs[i].Name, got[i], want[i])
		}
	}

	m := r.metricsHandles()
	if c := m.traceCaptures.Value(); c != 1 {
		t.Errorf("trace_cache_captures = %d, want 1", c)
	}
	if c := m.traceReplays.Value(); c != 3 {
		t.Errorf("trace_cache_replays = %d, want 3", c)
	}
	if c := m.traceBytes.Value(); c <= 0 {
		t.Errorf("trace_cache_bytes = %d, want > 0", c)
	}
	fm := fresh.metricsHandles()
	if c, rp := fm.traceCaptures.Value(), fm.traceReplays.Value(); c != 0 || rp != 0 {
		t.Errorf("NoReplay runner touched the trace cache: captures=%d replays=%d", c, rp)
	}
}

// TestOrderedProgramReplayed: a program with an Ordered launch simulates
// once and replays at the other configurations, bit-identical to a
// NoReplay runner.
func TestOrderedProgramReplayed(t *testing.T) {
	calls := 0
	r := NewRunner()
	got := measureConfigs(t, r, orderedToy("toy-ordered", &calls))
	if calls != 1 {
		t.Errorf("ordered program ran %d times, want 1", calls)
	}
	m := r.metricsHandles()
	if c := m.traceReplays.Value(); c != int64(len(kepler.Configs))-1 {
		t.Errorf("trace_cache_replays = %d, want %d", c, len(kepler.Configs)-1)
	}
	if c := m.traceSensitiveRuns.Value(); c != 0 {
		t.Errorf("trace_cache_sensitive_runs = %d, want 0", c)
	}

	fresh := NewRunner()
	fresh.NoReplay = true
	want := measureConfigs(t, fresh, orderedToy("toy-ordered", nil))
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: replayed ordered result differs from fresh simulation",
				kepler.Configs[i].Name)
		}
	}
}

// TestClockSensitiveProgramNeverReplayed: a program that reads the
// simulated clock mid-run must be re-simulated at every configuration —
// never served from the trace cache — and still agree bit for bit with a
// NoReplay runner.
func TestClockSensitiveProgramNeverReplayed(t *testing.T) {
	calls := 0
	r := NewRunner()
	got := measureConfigs(t, r, clockReaderToy("toy-clock-reader", &calls))
	if calls != len(kepler.Configs) {
		t.Errorf("clock-sensitive program ran %d times, want %d (one per config)",
			calls, len(kepler.Configs))
	}

	m := r.metricsHandles()
	if c := m.traceReplays.Value(); c != 0 {
		t.Errorf("trace_cache_replays = %d for a clock-sensitive program, want 0", c)
	}
	if c := m.traceSensitive.Value(); c != 1 {
		t.Errorf("trace_cache_sensitive_traces = %d, want 1", c)
	}
	if c := m.traceSensitiveRuns.Value(); c != int64(len(kepler.Configs))-1 {
		t.Errorf("trace_cache_sensitive_runs = %d, want %d", c, len(kepler.Configs)-1)
	}

	fresh := NewRunner()
	fresh.NoReplay = true
	want := measureConfigs(t, fresh, clockReaderToy("toy-clock-reader", nil))
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: sensitive-path result differs from fresh simulation",
				kepler.Configs[i].Name)
		}
	}
}

// TestTraceCacheHonorsCancellation: a capture canceled mid-simulation must
// not publish a partial trace. The rerun recaptures, and replays off the
// recaptured trace stay bit-identical to fresh simulation.
func TestTraceCacheHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancelFn := cancel
	p := cancelAfterFirstLaunch("toy-trace-cancel", &cancelFn)

	r := NewRunner()
	if _, err := r.Measure(ctx, p, "default", kepler.Default); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Measure = %v, want context.Canceled", err)
	}
	r.traceMu.Lock()
	n := len(r.traces)
	r.traceMu.Unlock()
	if n != 0 {
		t.Fatalf("canceled capture left %d trace cache entries, want 0", n)
	}

	// Disarm the cancel: the rerun must recapture, and the other configs
	// replay off the complete trace.
	cancelFn = nil
	got := measureConfigs(t, r, p)

	m := r.metricsHandles()
	if c := m.traceCaptures.Value(); c != 1 {
		t.Errorf("trace_cache_captures = %d after rerun, want 1", c)
	}
	if c := m.traceReplays.Value(); c != int64(len(kepler.Configs))-1 {
		t.Errorf("trace_cache_replays = %d, want %d", c, len(kepler.Configs)-1)
	}

	fresh := NewRunner()
	fresh.NoReplay = true
	var noCancel context.CancelFunc
	want := measureConfigs(t, fresh, cancelAfterFirstLaunch("toy-trace-cancel", &noCancel))
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: post-cancel replayed result differs from fresh simulation",
				kepler.Configs[i].Name)
		}
	}
}

// TestTraceCacheConcurrentConfigs: four configurations measured in parallel
// must share a single capture — the waiters block on the capturing
// goroutine's entry and replay, they never duplicate the simulation.
func TestTraceCacheConcurrentConfigs(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	p := &toyProgram{
		name:  "toy-concurrent",
		suite: SuiteSDK,
		run: func(dev *sim.Device) error {
			mu.Lock()
			calls++
			mu.Unlock()
			dev.SetTimeScale(100)
			l := dev.Launch("k", 512, 256, func(c *sim.Ctx) { c.FP32Ops(500) })
			dev.Repeat(l, 4000)
			return nil
		},
	}
	r := NewRunner()
	var wg sync.WaitGroup
	errs := make([]error, len(kepler.Configs))
	for i, clk := range kepler.Configs {
		wg.Add(1)
		go func(i int, clk kepler.Clocks) {
			defer wg.Done()
			_, errs[i] = r.Measure(context.Background(), p, "default", clk)
		}(i, clk)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", kepler.Configs[i].Name, err)
		}
	}
	if calls != 1 {
		t.Errorf("program ran %d times across concurrent configs, want 1", calls)
	}
	m := r.metricsHandles()
	if c, rp := m.traceCaptures.Value(), m.traceReplays.Value(); c != 1 || rp != 3 {
		t.Errorf("captures=%d replays=%d, want 1/3", c, rp)
	}
}
