package kepler

import (
	"fmt"
	"sort"
)

// Dense DVFS grid generation.
//
// The paper evaluates four configurations; the launch-trace replay engine
// makes additional configurations nearly free, so the frontier experiment
// (internal/frontier) sweeps a dense core-MHz x mem-MHz grid instead. The
// grid is generated, not hand-listed: GridSpec names the bounds, Device.Grid
// expands them into validated Clocks values, and Device.VoltageFor derives
// each configuration's core voltage from the device's DVFS ladder (its
// application-clock settings sorted by core frequency).
//
// Voltage model (the "V^2 f" model): dynamic power scales as C·V²·f, and
// DVFS pairs every frequency with the minimum stable voltage at that
// frequency. Each device's settings list the frequencies whose voltages are
// known; intermediate grid frequencies take the piecewise-linear
// interpolation between the neighboring ladder rungs, clamped to the
// ladder's end voltages outside its range. The resulting V(f) is monotone
// non-decreasing in f by construction (the loader rejects non-monotone
// ladders), which the power model's V²·f scaling — and the
// energy-monotonicity invariant in internal/check — depend on.

// GridSpec bounds a dense DVFS grid: every core clock from CoreMinMHz to
// CoreMaxMHz in CoreStepMHz strides, crossed with every memory clock in
// MemMHz. A device's four canonical configurations are always part of the
// generated grid, bit-identical to its Configurations().
type GridSpec struct {
	CoreMinMHz  int   `json:"coreMinMHz"`
	CoreMaxMHz  int   `json:"coreMaxMHz"`
	CoreStepMHz int   `json:"coreStepMHz"`
	MemMHz      []int `json:"memMHz"`
}

// MaxGridConfigs bounds the expanded grid size, keeping runaway specs (and
// hostile service requests) from exploding the sweep matrix.
const MaxGridConfigs = 1024

// Validate reports an error when the spec cannot expand into a plausible,
// bounded grid.
func (s GridSpec) Validate() error {
	switch {
	case s.CoreMinMHz <= 0 || s.CoreMaxMHz <= 0:
		return fmt.Errorf("kepler: grid core clocks must be positive (got %d-%d)", s.CoreMinMHz, s.CoreMaxMHz)
	case s.CoreMinMHz > s.CoreMaxMHz:
		return fmt.Errorf("kepler: grid core range inverted: %d > %d MHz", s.CoreMinMHz, s.CoreMaxMHz)
	case s.CoreStepMHz <= 0:
		return fmt.Errorf("kepler: grid core step must be positive (got %d)", s.CoreStepMHz)
	case len(s.MemMHz) == 0:
		return fmt.Errorf("kepler: grid needs at least one memory clock")
	}
	seen := make(map[int]bool, len(s.MemMHz))
	for _, m := range s.MemMHz {
		if m <= 0 {
			return fmt.Errorf("kepler: grid memory clocks must be positive (got %d)", m)
		}
		if seen[m] {
			return fmt.Errorf("kepler: duplicate grid memory clock %d MHz", m)
		}
		seen[m] = true
	}
	cores := (s.CoreMaxMHz-s.CoreMinMHz)/s.CoreStepMHz + 1
	if n := cores*len(s.MemMHz) + numCanonicalConfigs; n > MaxGridConfigs {
		return fmt.Errorf("kepler: grid expands to %d configurations (max %d)", n, MaxGridConfigs)
	}
	return nil
}

// GridName is the generated configuration naming scheme: "c<core>m<mem>".
// The name alone reconstructs the configuration on a given device (see
// Device.ConfigByName), so grid configs round-trip through stores and
// service requests without a registry.
func GridName(coreMHz, memMHz int) string {
	return fmt.Sprintf("c%dm%d", coreMHz, memMHz)
}

// GridRows groups a grid into frontier rows: configurations sharing a
// (memory clock, ECC) pair, each row's configurations sorted by ascending
// core clock. Rows are ordered ECC-off before ECC-on, then by descending
// memory clock — a deterministic layout the frontier optimizer and reports
// share.
func GridRows(grid []Clocks) [][]Clocks {
	type rowKey struct {
		mem int
		ecc bool
	}
	byKey := make(map[rowKey][]Clocks)
	var keys []rowKey
	for _, c := range grid {
		k := rowKey{c.MemMHz, c.ECC}
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], c)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ecc != keys[j].ecc {
			return !keys[i].ecc
		}
		return keys[i].mem > keys[j].mem
	})
	rows := make([][]Clocks, 0, len(keys))
	for _, k := range keys {
		row := byKey[k]
		sort.Slice(row, func(i, j int) bool {
			if row[i].CoreMHz != row[j].CoreMHz {
				return row[i].CoreMHz < row[j].CoreMHz
			}
			return row[i].Name < row[j].Name
		})
		rows = append(rows, row)
	}
	return rows
}
