package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kepler"
	"repro/internal/sim"
)

// cancelAfterFirstLaunch builds a two-kernel toy program that cancels the
// given context between its launches: the first kernel completes, the second
// aborts at its entry cancel check. With a live (already different) context
// the same program simulates both kernels, deterministically.
func cancelAfterFirstLaunch(name string, cancel *context.CancelFunc) *toyProgram {
	return &toyProgram{
		name:  name,
		suite: SuiteSDK,
		run: func(dev *sim.GPU) error {
			dev.SetTimeScale(100)
			l := dev.Launch("k1", 512, 256, func(c *sim.Ctx) { c.FP32Ops(500) })
			dev.Repeat(l, 4000)
			if *cancel != nil {
				(*cancel)()
			}
			l2 := dev.Launch("k2", 512, 256, func(c *sim.Ctx) { c.FP32Ops(500) })
			dev.Repeat(l2, 2000)
			return nil
		},
	}
}

// Canceling mid-simulation must surface context.Canceled from Measure, and
// the canceled combination must be evicted so an uncanceled rerun recomputes
// it — bit-identical to a runner that was never canceled.
func TestMeasureCanceledMidSimulationThenRerun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancelFn := cancel
	p := cancelAfterFirstLaunch("toy-cancel-mid", &cancelFn)

	r := NewRunner()
	if _, err := r.Measure(ctx, p, "default", kepler.Default); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Measure = %v, want context.Canceled", err)
	}

	// Disarm the cancel and rerun on the SAME runner: the canceled entry
	// must have been evicted, so this recomputes (and now completes).
	cancelFn = nil
	got, err := r.Measure(context.Background(), p, "default", kepler.Default)
	if err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}

	// A runner that never saw a cancellation must agree bit for bit.
	want, err := NewRunner().Measure(context.Background(), p, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-cancel rerun differs from clean run:\ngot  %+v\nwant %+v", got, want)
	}
}

// Entries that completed before a cancellation stay cached: the cancel must
// evict only the canceled combination.
func TestMeasureCancelKeepsCompletedEntries(t *testing.T) {
	r := NewRunner()
	q := computeBoundToy(4000)
	a, err := r.Measure(context.Background(), q, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	slow := computeBoundToy(4000)
	slow.name = "toy-cancel-victim"
	if _, err := r.Measure(ctx, slow, "default", kepler.Default); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Measure = %v, want context.Canceled", err)
	}

	b, err := r.Measure(context.Background(), q, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("completed entry was evicted by an unrelated cancellation")
	}
}

// Canceling mid-sweep: MeasureAll must return promptly with the context
// error reported exactly once, keep combinations measured before the cancel,
// and a subsequent uncancelled sweep must complete and match a never-canceled
// runner bit for bit. Run under -race this also exercises the concurrent
// cancel paths (pool Acquire, per-job Measure, sweep accounting).
func TestMeasureAllCanceledMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	cancelOnce := context.CancelFunc(func() { once.Do(cancel) })
	trigger := cancelOnce
	progs := []Program{cancelAfterFirstLaunch("toy-sweep-cancel", &trigger)}
	for i := 0; i < 3; i++ {
		p := computeBoundToy(4000)
		p.name = fmt.Sprintf("toy-sweep-%d", i)
		progs = append(progs, p)
	}

	r := NewRunner()
	err := r.MeasureAll(ctx, progs, []kepler.Clocks{kepler.Default}, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled MeasureAll = %v, want context.Canceled", err)
	}
	if n := strings.Count(err.Error(), context.Canceled.Error()); n != 1 {
		t.Errorf("context error reported %d times, want exactly once: %v", n, err)
	}

	// Uncancelled rerun on the same runner completes every combination and
	// matches a runner that never saw the cancellation.
	trigger = nil
	if err := r.MeasureAll(context.Background(), progs, []kepler.Clocks{kepler.Default}, false); err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}
	clean := NewRunner()
	if err := clean.MeasureAll(context.Background(), progs, []kepler.Clocks{kepler.Default}, false); err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		got, err := r.Measure(context.Background(), p, p.DefaultInput(), kepler.Default)
		if err != nil {
			t.Fatal(err)
		}
		want, err := clean.Measure(context.Background(), p, p.DefaultInput(), kepler.Default)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: post-cancel sweep differs from clean sweep", p.Name())
		}
	}
}

// A nil context must behave like context.Background (compatibility shim for
// callers that have no context yet).
func TestMeasureNilContext(t *testing.T) {
	r := NewRunner()
	if _, err := r.Measure(nil, computeBoundToy(4000), "default", kepler.Default); err != nil {
		t.Fatalf("Measure(nil ctx) = %v", err)
	}
}

// A Measure waiter waits on its own context: canceled, it returns at once,
// while the measurement it waited on finishes and stays cached.
func TestMeasureWaiterReturnsOnItsOwnCancel(t *testing.T) {
	var runs atomic.Int32
	started, proceed := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(proceed) })
	defer release()
	p := holdingToy("toy-waiter-cancel", &runs, started, proceed)

	r := NewRunner()
	type outcome struct {
		res *Result
		err error
	}
	led := make(chan outcome, 1)
	go func() {
		res, err := r.Measure(context.Background(), p, "default", kepler.Default)
		led <- outcome{res, err}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() {
		_, err := r.Measure(ctx, p, "default", kepler.Default)
		waited <- err
	}()
	waitForWaiter(t, "Measure")
	cancel()
	select {
	case err := <-waited:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a canceled waiter stayed blocked on another caller's measurement")
	}

	release()
	got := <-led
	if got.err != nil {
		t.Fatalf("leader: %v", got.err)
	}
	again, err := r.Measure(context.Background(), p, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	if again != got.res {
		t.Error("the leader's result was not cached")
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("program ran %d times, want 1", n)
	}
}

// A Measure waiter whose leader is canceled measures the combination
// itself, bit-identical to a fresh runner, and caches the result.
func TestMeasureWaiterReclaimsCanceledLeader(t *testing.T) {
	var runs atomic.Int32
	started, proceed := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(proceed) })
	defer release()
	p := holdingToy("toy-leader-cancel", &runs, started, proceed)

	r := NewRunner()
	ctx, cancel := context.WithCancel(context.Background())
	led := make(chan error, 1)
	go func() {
		_, err := r.Measure(ctx, p, "default", kepler.Default)
		led <- err
	}()
	<-started

	type outcome struct {
		res *Result
		err error
	}
	waited := make(chan outcome, 1)
	go func() {
		res, err := r.Measure(context.Background(), p, "default", kepler.Default)
		waited <- outcome{res, err}
	}()
	waitForWaiter(t, "Measure")
	cancel()
	release()
	if err := <-led; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader = %v, want context.Canceled", err)
	}
	got := <-waited
	if got.err != nil {
		t.Fatalf("waiter: %v", got.err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("program ran %d times, want 2 (the canceled leader's and the waiter's)", n)
	}
	if again, err := r.Measure(context.Background(), p, "default", kepler.Default); err != nil || again != got.res {
		t.Errorf("the waiter's result was not cached: %v", err)
	}
	want, err := NewRunner().Measure(context.Background(), p, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.res, want) {
		t.Errorf("waiter's result differs from a fresh runner's:\ngot  %+v\nwant %+v", got.res, want)
	}
}
