package core

import (
	"context"
	"sync"
)

// flight is the runner's singleflight cache; the measurements and the
// launch traces each use one. The first caller of a key claims its entry
// and computes the value while later callers wait for it, each on its own
// context. When the computation ends, an outcome the cache may keep
// resolves the entry for good; any other outcome (a panic included) evicts
// it, and a caller that waited on it claims the key anew instead of
// inheriting another caller's failure.
type flight[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*flightEntry[V]
}

// flightEntry is one key's slot. val, err and resolved are written once,
// under the flight's mutex, and never change after resolved is set.
type flightEntry[V any] struct {
	val      V
	err      error
	resolved bool
	// done is made by the first waiter, so an uncontended claim allocates
	// only the entry, and closed when the computation ends.
	done chan struct{}
}

// flightPath says how do came by its outcome.
type flightPath int

const (
	flightHit    flightPath = iota // a resolved entry held it
	flightClaim                    // this caller computed it
	flightWaited                   // another caller computed it, or this caller's context ended the wait
)

// do returns key's value: a resolved entry's outcome, or the outcome of
// compute, run by whichever caller claims the entry. keep reports whether
// a computed outcome may resolve the entry.
func (f *flight[K, V]) do(ctx context.Context, key K, keep func(error) bool, compute func() (V, error)) (V, flightPath, error) {
	for {
		f.mu.Lock()
		if f.entries == nil {
			f.entries = make(map[K]*flightEntry[V])
		}
		e := f.entries[key]
		switch {
		case e == nil:
			e = new(flightEntry[V])
			f.entries[key] = e
			f.mu.Unlock()
			v, err := f.lead(key, e, keep, compute)
			return v, flightClaim, err
		case e.resolved:
			f.mu.Unlock()
			return e.val, flightHit, e.err
		}
		if e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		f.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			var zero V
			return zero, flightWaited, ctx.Err()
		}
		// Closing done published resolved; an evicted entry stays unresolved.
		if e.resolved {
			return e.val, flightWaited, e.err
		}
	}
}

// lead computes a claimed entry, then resolves or evicts it and releases
// its waiters.
func (f *flight[K, V]) lead(key K, e *flightEntry[V], keep func(error) bool, compute func() (V, error)) (v V, err error) {
	returned := false
	defer func() {
		kept := returned && keep(err)
		f.mu.Lock()
		if kept {
			e.val, e.err, e.resolved = v, err, true
		} else if f.entries[key] == e {
			delete(f.entries, key)
		}
		if e.done != nil {
			close(e.done)
		}
		f.mu.Unlock()
	}()
	v, err = compute()
	returned = true
	return v, err
}

// put inserts an already-resolved entry for key unless a resolved one is
// there. An in-flight computation of key loses its slot; its callers still
// get its outcome.
func (f *flight[K, V]) put(key K, v V, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e := f.entries[key]; e != nil && e.resolved {
		return
	}
	if f.entries == nil {
		f.entries = make(map[K]*flightEntry[V])
	}
	f.entries[key] = &flightEntry[V]{val: v, err: err, resolved: true}
}

// get returns key's resolved entry, or nil while the key is absent or in
// flight.
func (f *flight[K, V]) get(key K) *flightEntry[V] {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e := f.entries[key]; e != nil && e.resolved {
		return e
	}
	return nil
}

// each calls fn on every resolved entry, holding the flight's mutex, and
// returns how many entries are still in flight.
func (f *flight[K, V]) each(fn func(K, *flightEntry[V])) (pending int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, e := range f.entries {
		if e.resolved {
			fn(k, e)
		} else {
			pending++
		}
	}
	return pending
}
