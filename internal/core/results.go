package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/k20power"
)

// StoreVersion is the physics version of a measurement, carried by the
// golden corpus and the GET /v1/results body: bump it with any change to
// the simulator, power model, sensor or analyzer that moves a result.
const StoreVersion = 2

// resultKey keys the measurement cache: one (program, input, config) on
// one board.
type resultKey struct{ program, input, config, board string }

func resultKeyOf(c Combo) resultKey {
	return resultKey{c.Program.Name(), c.Input, c.Clocks.Name, c.Clocks.Device().Name}
}

// entryResult returns the entry stored under k as a Result. ok is false
// when it failed hard.
func entryResult(k resultKey, e *flightEntry[*Result]) (Result, bool) {
	switch {
	case e.err == nil:
		return *e.val, true
	case IsInsufficient(e.err):
		return Result{Program: k.program, Input: k.input, Config: k.config, Board: k.board, Insufficient: true}, true
	}
	return Result{}, false
}

// Results lists the runner's resolved cache entries in deterministic
// (program, input, board, config) order — the GET /v1/results body.
// It is safe to call concurrently with Measure/MeasureAll; in-flight and
// hard-failed entries are skipped.
func (r *Runner) Results() []Result {
	out := []Result{} // encodes as [], not null, when empty
	r.results.each(func(k resultKey, e *flightEntry[*Result]) {
		if res, ok := entryResult(k, e); ok {
			out = append(out, res)
		}
	})
	SortResults(out)
	return out
}

// SortResults orders results in the deterministic (program, input, board,
// config) order Results lists. Workers sort their shard responses with it
// so the coordinator merges already-canonical fragments.
func SortResults(results []Result) {
	slices.SortFunc(results, func(a, b Result) int {
		return cmp.Or(strings.Compare(a.Program, b.Program), strings.Compare(a.Input, b.Input),
			strings.Compare(a.Board, b.Board), strings.Compare(a.Config, b.Config))
	})
}

// Lookup returns the resolved result of one combination without measuring
// it. ok is false while the combination is unresolved (never measured,
// still in flight, or failed hard).
func (r *Runner) Lookup(c Combo) (Result, bool) {
	k := resultKeyOf(c)
	if e := r.results.get(k); e != nil {
		return entryResult(k, e)
	}
	return Result{}, false
}

// ImportResults seeds the cache from results measured elsewhere (a
// worker's shard or measure response): completed results and
// exclusions both become resolved entries. Existing resolved entries are
// never overwritten — a local measurement and an imported one are
// bit-identical anyway (simulation is deterministic per configuration), so
// first-write-wins keeps pointers stable.
func (r *Runner) ImportResults(results []Result) {
	for _, res := range results {
		val, err := &res, error(nil)
		if res.Insufficient {
			val, err = nil, fmt.Errorf("%s/%s@%s: %w (cached)", res.Program, res.Input, res.Config,
				k20power.ErrInsufficientSamples)
		}
		r.results.put(resultKey{res.Program, res.Input, res.Config, res.Board}, val, err)
	}
}

// CacheCounts reports how many cache entries are resolved (measurements and
// exclusions available without simulating) and how many are still being
// computed. For health and capacity introspection; values are a snapshot.
func (r *Runner) CacheCounts() (resolved, pending int) {
	pending = r.results.each(func(resultKey, *flightEntry[*Result]) { resolved++ })
	return resolved, pending
}
