package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/kepler"
	"repro/internal/sim"
)

// stubInputs are the inputs of every stub program. Each (program, input)
// pair has a trace of its own, so a sweep over all of them at one
// configuration runs the program once per combination.
var stubInputs = []string{"a", "b", "c", "d"}

// stubProgram is a toy whose Run is one tiny launch plus a hook.
func stubProgram(name string, hook func() error) *toyProgram {
	return &toyProgram{
		name:   name,
		suite:  SuiteSDK,
		inputs: stubInputs,
		run: func(dev *sim.GPU) error {
			if err := hook(); err != nil {
				return err
			}
			dev.Launch("k", 2, 32, func(c *sim.Ctx) { c.FP32Ops(4) })
			return nil
		},
	}
}

// sweepCounters reads the runner's sweep progress counters.
func sweepCounters(r *Runner) (total, done, canceled int64) {
	reg := r.Metrics()
	return reg.Counter("sweep_jobs_total").Value(), reg.Counter("sweep_jobs_done").Value(),
		reg.Counter("sweep_jobs_canceled").Value()
}

// The dispatchers take the captures first: with two workers over N
// programs x 4 configs, the N captures — one Run call per program — come
// before every replay. Each program's Run holds its worker until the next
// program's Run has begun, so a dispatcher that took a second
// configuration of an in-flight program instead, and waited on that
// capture, would stall the chain (reported after a timeout rather than
// hanging).
func TestMeasureListCapturesFirst(t *testing.T) {
	const n = 6
	var mu sync.Mutex
	var calls []string
	var ran [n]bool
	var started [n]chan struct{}
	for i := range started {
		started[i] = make(chan struct{})
	}
	var progs []Program
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("stub-%d", i)
		progs = append(progs, stubProgram(name, func() error {
			mu.Lock()
			calls = append(calls, name)
			first := !ran[i]
			ran[i] = true
			mu.Unlock()
			if first {
				close(started[i])
				if i+1 < n {
					select {
					case <-started[i+1]:
					case <-time.After(5 * time.Second):
						return fmt.Errorf("%s: stub-%d never started alongside it", name, i+1)
					}
				}
			}
			return nil
		}))
	}

	r := NewRunner()
	r.Workers = 2
	if err := r.MeasureAll(context.Background(), progs, kepler.Configs, false); err != nil {
		t.Fatal(err)
	}
	if len(calls) != n {
		t.Fatalf("%d Run calls %v, want one per program (%d)", len(calls), calls, n)
	}
	seen := make(map[string]bool)
	for _, c := range calls {
		if seen[c] {
			t.Fatalf("Run calls %v repeat %s", calls, c)
		}
		seen[c] = true
	}
	if _, done, _ := sweepCounters(r); done != n*int64(len(kepler.Configs)) {
		t.Errorf("sweep_jobs_done = %d, want %d", done, n*len(kepler.Configs))
	}
}

// A sweep runs on a fixed set of dispatchers: however long the list, the
// goroutine count stays within the worker budget (plus slack for the
// runtime), instead of one goroutine per combination.
func TestMeasureListBoundedGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	var mu sync.Mutex
	peak := 0
	sample := func() error {
		g := runtime.NumGoroutine()
		mu.Lock()
		peak = max(peak, g)
		mu.Unlock()
		return nil
	}
	var progs []Program
	for i := 0; i < 100; i++ {
		progs = append(progs, stubProgram(fmt.Sprintf("stub-%d", i), sample))
	}

	// Every combination runs the program: a distinct input each.
	r := NewRunner()
	r.Workers = 2
	if err := r.MeasureAll(context.Background(), progs, []kepler.Clocks{kepler.Default}, true); err != nil {
		t.Fatal(err)
	}
	if total, _, _ := sweepCounters(r); total != 400 {
		t.Fatalf("sweep_jobs_total = %d, want 400", total)
	}
	if limit := start + r.WorkerPool().Budget() + 2; peak > limit {
		t.Errorf("peak goroutines %d during the sweep, want at most %d", peak, limit)
	}
}

// A mid-sweep cancel still accounts for every job exactly once: done +
// canceled + failed equals sweep_jobs_total, and the context error is
// reported once.
func TestMeasureListCancelAccountsEveryJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("stub failure")
	var mu sync.Mutex
	runs := 0
	progs := []Program{stubProgram("stub-fail", func() error { return boom })}
	for i := 0; i < 20; i++ {
		progs = append(progs, stubProgram(fmt.Sprintf("stub-%d", i), func() error {
			mu.Lock()
			defer mu.Unlock()
			if runs++; runs == 30 {
				cancel()
			}
			return nil
		}))
	}

	// Every combination runs the program: a distinct input each.
	r := NewRunner()
	r.Workers = 2
	err := r.MeasureAll(ctx, progs, []kepler.Clocks{kepler.Default}, true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MeasureAll = %v, want context.Canceled", err)
	}
	failed, ctxErrs := 0, 0
	for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
		switch {
		case errors.Is(e, boom):
			failed++
		case isCtxErr(e):
			ctxErrs++
		default:
			t.Errorf("unexpected error %v", e)
		}
	}
	if ctxErrs != 1 {
		t.Errorf("context error reported %d times, want once", ctxErrs)
	}
	total, done, canceled := sweepCounters(r)
	if failed == 0 || canceled == 0 || done == 0 {
		t.Errorf("done %d, canceled %d, failed %d: want each of them exercised", done, canceled, failed)
	}
	if done+canceled+int64(failed) != total {
		t.Errorf("done %d + canceled %d + failed %d != sweep_jobs_total %d", done, canceled, failed, total)
	}
}
