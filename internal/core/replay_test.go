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
		run: func(dev *sim.GPU) error {
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
		run: func(dev *sim.GPU) error {
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

// measureFresh measures p at every configuration on a fresh default runner,
// in reverse order, so its capture runs at another configuration than a
// forward sweep's; it returns the results in kepler.Configs order.
func measureFresh(t *testing.T, p Program) []*Result {
	t.Helper()
	r := NewRunner()
	out := make([]*Result, len(kepler.Configs))
	for i := len(kepler.Configs) - 1; i >= 0; i-- {
		res, err := r.Measure(context.Background(), p, "default", kepler.Configs[i])
		if err != nil {
			t.Fatalf("%s@%s: %v", p.Name(), kepler.Configs[i].Name, err)
		}
		out[i] = res
	}
	return out
}

// diffFresh reports every configuration whose result differs from a fresh
// runner's.
func diffFresh(t *testing.T, what string, got, want []*Result) {
	t.Helper()
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: %s differs from a fresh runner's:\ngot  %+v\nwant %+v",
				kepler.Configs[i].Name, what, got[i], want[i])
		}
	}
}

// TestReplayMatchesNoReplayBitIdentical: a runner simulates the program
// once and prices all four configurations by replaying its launch trace, and
// the results match, bit for bit, those of a fresh runner that has replayed
// nothing of this runner's and captures at another configuration: they do
// not depend on which configuration asked first.
func TestReplayMatchesNoReplayBitIdentical(t *testing.T) {
	calls := 0
	r := NewRunner()
	got := measureConfigs(t, r, insensitiveToy("toy-replay", &calls))
	if calls != 1 {
		t.Errorf("replay runner ran the program %d times, want 1", calls)
	}
	diffFresh(t, "replayed result", got, measureFresh(t, insensitiveToy("toy-replay", nil)))

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
}

// TestOrderedProgramReplayed: a program with an Ordered launch simulates
// once and replays at every configuration, bit-identical to a fresh
// runner that captured it at another configuration.
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

	diffFresh(t, "replayed ordered result", got, measureFresh(t, orderedToy("toy-ordered", nil)))
}

// TestTraceCacheHonorsCancellation: a capture canceled mid-simulation must
// not publish a partial trace. The rerun recaptures, and replays off the
// recaptured trace stay bit-identical to a fresh runner's.
func TestTraceCacheHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancelFn := cancel
	p := cancelAfterFirstLaunch("toy-trace-cancel", &cancelFn)

	r := NewRunner()
	if _, err := r.Measure(ctx, p, "default", kepler.Default); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Measure = %v, want context.Canceled", err)
	}
	r.traces.mu.Lock()
	n := len(r.traces.entries)
	r.traces.mu.Unlock()
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

	var noCancel context.CancelFunc
	diffFresh(t, "post-cancel replayed result", got, measureFresh(t, cancelAfterFirstLaunch("toy-trace-cancel", &noCancel)))
}

// TestTraceCacheWaiterReclaimsCanceledCapture: a capture canceled while a
// measurement of the same pair at another configuration, with a live
// context, waits on it. The waiter must claim the pair itself, capture it
// once and replay it, bit-identical to a fresh runner's.
func TestTraceCacheWaiterReclaimsCanceledCapture(t *testing.T) {
	var runs atomic.Int32
	started, proceed := make(chan struct{}), make(chan struct{})
	p := holdingToy("toy-reclaim", &runs, started, proceed)
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
	waitForWaiter(t, "trace")

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

	want, err := NewRunner().Measure(context.Background(), p, "default", waiterClk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.res, want) {
		t.Errorf("waiter's result differs from a fresh runner's:\ngot  %+v\nwant %+v", got.res, want)
	}
}

// holdingToy is a two-kernel toy whose first run closes started between
// its kernels and holds there until proceed closes; later runs do not hold.
// runs counts the runs.
func holdingToy(name string, runs *atomic.Int32, started, proceed chan struct{}) *toyProgram {
	return &toyProgram{
		name:  name,
		suite: SuiteSDK,
		run: func(dev *sim.GPU) error {
			dev.SetTimeScale(100)
			l := dev.Launch("k1", 512, 256, func(c *sim.Ctx) { c.FP32Ops(500) })
			dev.Repeat(l, 4000)
			if runs.Add(1) == 1 {
				close(started)
				<-proceed
			}
			l2 := dev.Launch("k2", 512, 256, func(c *sim.Ctx) { c.FP32Ops(500) })
			dev.Repeat(l2, 2000)
			return nil
		},
	}
}

// waitForWaiter blocks until some goroutine is parked in a singleflight
// wait called from the Runner method named caller: "trace" waits for another
// measurement's capture, "Measure" for another caller's measurement.
func waitForWaiter(t *testing.T, caller string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			// A frame is a function line and a file line.
			lines := strings.Split(g, "\n")
			if len(lines) > 3 && strings.Contains(lines[0], "[select") &&
				strings.HasPrefix(lines[1], "repro/internal/core.(*flight[") &&
				strings.HasPrefix(lines[3], "repro/internal/core.(*Runner)."+caller+"(") {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no %s call waited on an in-flight computation", caller)
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
		run: func(dev *sim.GPU) error {
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
