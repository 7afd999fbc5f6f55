package core

import (
	"fmt"
	"sort"

	"repro/internal/k20power"
)

// Record is the one serialized form of a resolved measurement: either a
// completed (program, input, config) on one board — the per-metric medians,
// the simulator's ground truth and the repetitions — or an
// insufficient-samples exclusion (the paper's "program excluded at this
// configuration"), whose measurement fields are zero. The store file,
// GET /v1/results, POST /v1/shard and a POST /v1/measure 200 body all carry
// it in this shape and field order.
type Record struct {
	Program string `json:"program"`
	Input   string `json:"input"`
	Config  string `json:"config"`
	Board   string `json:"board"`

	ActiveTime float64 `json:"activeTime"`
	Energy     float64 `json:"energy"`
	AvgPower   float64 `json:"avgPower"`

	TrueActiveTime float64 `json:"trueActiveTime"`
	TrueEnergy     float64 `json:"trueEnergy"`

	Reps []k20power.Measurement `json:"reps"`

	// Insufficient marks an exclusion; it is resolved too, so reruns skip
	// the simulation.
	Insufficient bool `json:"insufficient,omitempty"`
}

// Record returns the result as measured on board. The raw sensor traces are
// never part of it.
func (r *Result) Record(board string) Record {
	return Record{
		Program: r.Program, Input: r.Input, Config: r.Config, Board: board,
		ActiveTime: r.ActiveTime, Energy: r.Energy, AvgPower: r.AvgPower,
		TrueActiveTime: r.TrueActiveTime, TrueEnergy: r.TrueEnergy,
		Reps: r.Reps,
	}
}

// resultKey keys the measurement cache: one (program, input, config) on
// one board.
type resultKey struct{ program, input, config, board string }

// record returns the entry stored under k as a Record. ok is false while
// the entry is unresolved (still in flight) or when it failed hard.
func (e *cacheEntry) record(k resultKey) (Record, bool) {
	// Entries still inside their sync.Once are skipped: reading res/err
	// before resolved is published would race with a concurrent Measure.
	if !e.resolved.Load() {
		return Record{}, false
	}
	switch {
	case e.res != nil:
		return e.res.Record(k.board), true
	case IsInsufficient(e.err):
		return Record{Program: k.program, Input: k.input, Config: k.config, Board: k.board, Insufficient: true}, true
	}
	return Record{}, false
}

// Results lists the runner's resolved cache entries in deterministic
// (program, input, board, config) order — exactly what SaveStore persists.
// It is safe to call concurrently with Measure/MeasureAll; in-flight and
// hard-failed entries are skipped.
func (r *Runner) Results() []Record {
	r.mu.Lock()
	out := make([]Record, 0, len(r.cache))
	for k, e := range r.cache {
		if rec, ok := e.record(k); ok {
			out = append(out, rec)
		}
	}
	r.mu.Unlock()
	SortResults(out)
	return out
}

// SortResults orders records in the deterministic (program, input, board,
// config) order Results lists. Workers sort their shard responses with it
// so the coordinator merges already-canonical fragments.
func SortResults(records []Record) {
	sort.Slice(records, func(i, j int) bool {
		a, b := records[i], records[j]
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if a.Input != b.Input {
			return a.Input < b.Input
		}
		if a.Board != b.Board {
			return a.Board < b.Board
		}
		return a.Config < b.Config
	})
}

// Lookup returns the resolved record of one combination. ok is false while
// the combination is unresolved (never measured, still in flight, or failed
// hard).
func (r *Runner) Lookup(program, input, config, board string) (Record, bool) {
	k := resultKey{program, input, config, board}
	r.mu.Lock()
	e, ok := r.cache[k]
	r.mu.Unlock()
	if !ok {
		return Record{}, false
	}
	return e.record(k)
}

// ImportResults seeds the cache from records measured elsewhere (a store
// file, a worker's shard or measure response): completed results and
// exclusions both become resolved entries. Existing resolved entries are
// never overwritten — a local measurement and an imported one are
// bit-identical anyway (simulation is deterministic per configuration), so
// first-write-wins keeps pointers stable. Returns the number of entries
// actually inserted.
func (r *Runner) ImportResults(records []Record) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cache == nil {
		r.cache = make(map[resultKey]*cacheEntry)
	}
	imported := 0
	for _, rec := range records {
		k := resultKey{rec.Program, rec.Input, rec.Config, rec.Board}
		if e, ok := r.cache[k]; ok && e.resolved.Load() {
			continue
		}
		e := &cacheEntry{}
		if rec.Insufficient {
			e.err = fmt.Errorf("%s/%s@%s: %w (cached)", rec.Program, rec.Input, rec.Config,
				k20power.ErrInsufficientSamples)
		} else {
			e.res = &Result{
				Program: rec.Program, Input: rec.Input, Config: rec.Config,
				Reps:       rec.Reps,
				ActiveTime: rec.ActiveTime, Energy: rec.Energy, AvgPower: rec.AvgPower,
				TrueActiveTime: rec.TrueActiveTime, TrueEnergy: rec.TrueEnergy,
			}
		}
		e.once.Do(func() {}) // consume the once
		e.resolved.Store(true)
		r.cache[k] = e
		imported++
	}
	return imported
}

// CacheCounts reports how many cache entries are resolved (measurements and
// exclusions available without simulating) and how many are still being
// computed. For health and capacity introspection; values are a snapshot.
func (r *Runner) CacheCounts() (resolved, pending int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.cache {
		if e.resolved.Load() {
			resolved++
		} else {
			pending++
		}
	}
	return resolved, pending
}
