package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// contract: a runner that simulates the program once and prices all four
// configurations by replaying its launch trace must produce results
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
	if c := m.traceReplays.Value(); c != 4 {
		t.Errorf("trace_cache_replays = %d, want 4 (one per measurement)", c)
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
// once and replays at every configuration, bit-identical to a NoReplay
// runner.
func TestOrderedProgramReplayed(t *testing.T) {
	calls := 0
	r := NewRunner()
	got := measureConfigs(t, r, orderedToy("toy-ordered", &calls))
	if calls != 1 {
		t.Errorf("ordered program ran %d times, want 1", calls)
	}
	m := r.metricsHandles()
	if c := m.traceReplays.Value(); c != int64(len(kepler.Configs)) {
		t.Errorf("trace_cache_replays = %d, want %d", c, len(kepler.Configs))
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

	// Disarm the cancel: the rerun must recapture, and every config replays
	// off the complete trace.
	cancelFn = nil
	got := measureConfigs(t, r, p)

	m := r.metricsHandles()
	if c := m.traceCaptures.Value(); c != 1 {
		t.Errorf("trace_cache_captures = %d after rerun, want 1", c)
	}
	if c := m.traceReplays.Value(); c != int64(len(kepler.Configs)) {
		t.Errorf("trace_cache_replays = %d, want %d", c, len(kepler.Configs))
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

// TestTraceCacheWaiterReclaimsCanceledCapture: a capture canceled while a
// measurement of the same pair at another configuration, with a live
// context, waits on it. The waiter must claim the pair itself, capture it
// once and replay it, bit-identical to a NoReplay runner.
func TestTraceCacheWaiterReclaimsCanceledCapture(t *testing.T) {
	var runs atomic.Int32
	started, proceed := make(chan struct{}), make(chan struct{})
	p := &toyProgram{
		name:  "toy-reclaim",
		suite: SuiteSDK,
		run: func(dev *sim.Device) error {
			dev.SetTimeScale(100)
			l := dev.Launch("k1", 512, 256, func(c *sim.Ctx) { c.FP32Ops(500) })
			dev.Repeat(l, 4000)
			if runs.Add(1) == 1 {
				// The first run (the doomed capture) holds here.
				close(started)
				<-proceed
			}
			l2 := dev.Launch("k2", 512, 256, func(c *sim.Ctx) { c.FP32Ops(500) })
			dev.Repeat(l2, 2000)
			return nil
		},
	}
	waiterClk := kepler.Configs[1]

	r := NewRunner()
	ctx, cancel := context.WithCancel(context.Background())
	capErr := make(chan error, 1)
	go func() {
		_, err := r.Measure(ctx, p, "default", kepler.Default)
		capErr <- err
	}()
	<-started

	type outcome struct {
		res *Result
		err error
	}
	waited := make(chan outcome, 1)
	go func() {
		res, err := r.Measure(context.Background(), p, "default", waiterClk)
		waited <- outcome{res, err}
	}()
	waitForTraceWaiter(t)

	cancel()
	close(proceed)
	if err := <-capErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled capture = %v, want context.Canceled", err)
	}
	got := <-waited
	if got.err != nil {
		t.Fatalf("waiter: %v", got.err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("program ran %d times, want 2 (the canceled capture and the waiter's)", n)
	}
	m := r.metricsHandles()
	if c := m.traceCaptures.Value(); c != 1 {
		t.Errorf("trace_cache_captures = %d, want 1", c)
	}

	fresh := NewRunner()
	fresh.NoReplay = true
	want, err := fresh.Measure(context.Background(), p, "default", waiterClk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.res, want) {
		t.Errorf("waiter's result differs from a NoReplay runner's:\ngot  %+v\nwant %+v", got.res, want)
	}
}

// waitForTraceWaiter blocks until some goroutine is parked in the trace
// cache's wait for another measurement's capture.
func waitForTraceWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, frames, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[select") && strings.HasPrefix(frames, "repro/internal/core.(*Runner).trace(") {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no measurement waited on the in-flight capture")
}

// TestTraceCacheConcurrentConfigs: four configurations measured in parallel
// must share a single capture — the waiters block on the capturing
// goroutine's entry, they never duplicate the simulation — and all four
// replay it.
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
	if c, rp := m.traceCaptures.Value(), m.traceReplays.Value(); c != 1 || rp != 4 {
		t.Errorf("captures=%d replays=%d, want 1/4", c, rp)
	}
}
