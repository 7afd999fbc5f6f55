package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/kepler"
)

// recoverCancel runs fn and reports the cancellation cause if fn aborted
// via the launchCanceled sentinel, mirroring what core.RunProgram does.
func recoverCancel(fn func()) (cause error) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := CancelCause(r); ok {
				cause = err
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

// A launch on a GPU whose context is already canceled must abort via the
// sentinel panic before simulating any block, and the GPU must stay usable
// for a later run with a live context.
func TestLaunchAbortsOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	g := NewGPU(kepler.K20cDevice())
	g.SetContext(ctx)
	err := recoverCancel(func() {
		g.Launch("k", 512, 256, func(c *Ctx) { c.FP32Ops(100) })
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("launch on canceled GPU: cause = %v, want context.Canceled", err)
	}
	if n := g.Trace().Launches(); n != 0 {
		t.Errorf("aborted launch left %d record(s)", n)
	}

	// Reset to a live context: the same GPU completes the launch, and the
	// aborted one took no launch ID.
	g.SetContext(context.Background())
	var id LaunchID
	if err := recoverCancel(func() {
		id = g.Launch("k", 512, 256, func(c *Ctx) { c.FP32Ops(100) })
	}); err != nil {
		t.Fatalf("launch after context reset aborted: %v", err)
	}
	if n := g.Trace().Launches(); n != 1 || id != 0 {
		t.Errorf("%d launches recorded after the reset, the last with ID %d; want 1 with ID 0", n, id)
	}
}

// Cancellation between launches must not perturb the records of launches
// that completed before it: a canceled GPU's trace prices its completed
// launch bit-identically to a never-canceled GPU's.
func TestCancelPreservesCompletedLaunches(t *testing.T) {
	run := func(g *GPU) {
		g.Launch("fma", 512, 256, func(c *Ctx) { c.FP32Ops(200) })
	}

	want := simulate(t, kepler.Default, run).Launches[0]

	ctx, cancel := context.WithCancel(context.Background())
	g := NewGPU(kepler.K20cDevice())
	g.SetContext(ctx)
	run(g)
	cancel()
	if err := recoverCancel(func() { run(g) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel launch: cause = %v, want context.Canceled", err)
	}
	d := mustReplay(t, g.Trace(), kepler.Default)
	if len(d.Launches) != 1 {
		t.Fatalf("canceled run priced %d launches, want 1", len(d.Launches))
	}
	if got := d.Launches[0]; got.Stats != want.Stats || got.Duration != want.Duration {
		t.Errorf("completed launch differs after cancel:\nclean    %+v\ncanceled %+v", want, got)
	}
}

// TestAcquireCanceled: a blocked Acquire must wake up and return the
// context error when its context fires, without consuming a slot.
func TestAcquireCanceled(t *testing.T) {
	p := NewWorkerPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Acquire(ctx) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked Acquire = %v, want context.Canceled", err)
	}
	p.Release(1)

	// The canceled waiter must not have leaked a slot: the pool still has
	// its full budget.
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.TryAcquire(1); got != 0 {
		t.Errorf("TryAcquire after refill = %d, want 0 (single-slot pool in use)", got)
	}
	p.Release(1)
}

// An already-canceled context must fail Acquire immediately, even when a
// slot is free.
func TestAcquirePreCanceled(t *testing.T) {
	p := NewWorkerPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire with canceled ctx = %v, want context.Canceled", err)
	}
	// Both slots must still be free.
	if got := p.TryAcquire(2); got != 2 {
		t.Errorf("TryAcquire(2) = %d, want 2 (no slot leaked)", got)
	}
	p.Release(2)
}
