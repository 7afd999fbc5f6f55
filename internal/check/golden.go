package check

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/kepler"
)

// GoldenEntry is one (program, input, configuration) measurement snapshot.
// Combinations the analyzer rejected are recorded too (Insufficient), so a
// physics change that suddenly makes an excluded program measurable — or
// vice versa — is also caught.
type GoldenEntry struct {
	Program      string `json:"program"`
	Input        string `json:"input"`
	Config       string `json:"config"`
	Insufficient bool   `json:"insufficient,omitempty"`

	ActiveTime     float64 `json:"activeTime,omitempty"`
	Energy         float64 `json:"energy,omitempty"`
	AvgPower       float64 `json:"avgPower,omitempty"`
	TrueActiveTime float64 `json:"trueActiveTime,omitempty"`
	TrueEnergy     float64 `json:"trueEnergy,omitempty"`
}

// GoldenFile is one suite's snapshot corpus. StoreVersion records the
// physics version (core.StoreVersion) the snapshot was generated under: a
// deliberate model change bumps the version and regenerates the corpus,
// while an accidental drift fails the golden tests against the same
// version.
type GoldenFile struct {
	StoreVersion int           `json:"storeVersion"`
	Suite        string        `json:"suite"`
	Entries      []GoldenEntry `json:"entries"`
}

// SuiteFileName maps a suite to its golden file name ("CUDA SDK" ->
// "cuda-sdk.json").
func SuiteFileName(s core.Suite) string {
	return strings.ReplaceAll(strings.ToLower(string(s)), " ", "-") + ".json"
}

// Snapshot measures every program (default input) at every configuration
// through the runner, in parallel within its worker budget, and groups the
// snapshots by suite. Combinations already in the runner's cache are reused.
func Snapshot(ctx context.Context, r *core.Runner, programs []core.Program, configs []kepler.Clocks) (map[core.Suite]*GoldenFile, error) {
	combos := core.EnumerateCombos(programs, configs, false)
	results, err := r.MeasureEach(ctx, combos)
	if err != nil {
		return nil, fmt.Errorf("check: snapshot: %w", err)
	}
	out := make(map[core.Suite]*GoldenFile)
	for i, c := range combos {
		suite := c.Program.Suite()
		gf := out[suite]
		if gf == nil {
			gf = &GoldenFile{StoreVersion: core.StoreVersion, Suite: string(suite)}
			out[suite] = gf
		}
		e := GoldenEntry{Program: c.Program.Name(), Input: c.Input, Config: c.Clocks.Name}
		if res := results[i]; res != nil {
			e.ActiveTime = res.ActiveTime
			e.Energy = res.Energy
			e.AvgPower = res.AvgPower
			e.TrueActiveTime = res.TrueActiveTime
			e.TrueEnergy = res.TrueEnergy
		} else {
			e.Insufficient = true
		}
		gf.Entries = append(gf.Entries, e)
	}
	for _, gf := range out {
		sortEntries(gf.Entries)
	}
	return out, nil
}

func sortEntries(es []GoldenEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Program != es[j].Program {
			return es[i].Program < es[j].Program
		}
		if es[i].Input != es[j].Input {
			return es[i].Input < es[j].Input
		}
		return es[i].Config < es[j].Config
	})
}

// WriteGoldenDir writes one golden file per suite into dir.
func WriteGoldenDir(dir string, files map[core.Suite]*GoldenFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for suite, gf := range files {
		data, err := json.MarshalIndent(gf, "", " ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, SuiteFileName(suite))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// LoadGoldenFile reads one suite snapshot.
func LoadGoldenFile(path string) (*GoldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var gf GoldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		return nil, fmt.Errorf("check: parsing golden %s: %w", path, err)
	}
	return &gf, nil
}

// LoadGoldenDir reads every *.json suite snapshot in dir.
func LoadGoldenDir(dir string) (map[core.Suite]*GoldenFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[core.Suite]*GoldenFile, len(paths))
	for _, path := range paths {
		gf, err := LoadGoldenFile(path)
		if err != nil {
			return nil, err
		}
		out[core.Suite(gf.Suite)] = gf
	}
	return out, nil
}

// DiffGolden compares a stored suite snapshot against a fresh one and
// returns one readable line per divergent metric (empty when they match
// within relTol). A StoreVersion mismatch is reported first: it means the
// corpus predates a deliberate physics change and must be regenerated with
// cmd/goldengen rather than treated as a regression.
func DiffGolden(want, got *GoldenFile, relTol float64) []string {
	var diffs []string
	if want.StoreVersion != got.StoreVersion {
		diffs = append(diffs, fmt.Sprintf(
			"store version %d != current %d: physics changed deliberately? regenerate with `go run ./cmd/goldengen`",
			want.StoreVersion, got.StoreVersion))
	}
	type key struct{ prog, input, config string }
	index := func(gf *GoldenFile) map[key]GoldenEntry {
		m := make(map[key]GoldenEntry, len(gf.Entries))
		for _, e := range gf.Entries {
			m[key{e.Program, e.Input, e.Config}] = e
		}
		return m
	}
	wm, gm := index(want), index(got)
	var keys []key
	for k := range wm {
		keys = append(keys, k)
	}
	for k := range gm {
		if _, ok := wm[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.prog != b.prog {
			return a.prog < b.prog
		}
		if a.input != b.input {
			return a.input < b.input
		}
		return a.config < b.config
	})
	for _, k := range keys {
		w, okW := wm[k]
		g, okG := gm[k]
		id := fmt.Sprintf("%s/%s@%s", k.prog, k.input, k.config)
		switch {
		case !okW:
			diffs = append(diffs, fmt.Sprintf("%s: new combination not in golden corpus", id))
			continue
		case !okG:
			diffs = append(diffs, fmt.Sprintf("%s: combination vanished from current sweep", id))
			continue
		case w.Insufficient != g.Insufficient:
			diffs = append(diffs, fmt.Sprintf("%s: measurability flipped: golden insufficient=%v, now %v",
				id, w.Insufficient, g.Insufficient))
			continue
		case w.Insufficient:
			continue // both excluded: nothing numeric to compare
		}
		for _, mt := range []struct {
			name      string
			want, got float64
		}{
			{"ActiveTime", w.ActiveTime, g.ActiveTime},
			{"Energy", w.Energy, g.Energy},
			{"AvgPower", w.AvgPower, g.AvgPower},
			{"TrueActiveTime", w.TrueActiveTime, g.TrueActiveTime},
			{"TrueEnergy", w.TrueEnergy, g.TrueEnergy},
		} {
			if !withinRel(mt.want, mt.got, relTol) {
				diffs = append(diffs, fmt.Sprintf("%s: %s golden %.9g, got %.9g (rel %+.3g)",
					id, mt.name, mt.want, mt.got, mt.got/mt.want-1))
			}
		}
	}
	return diffs
}

// withinRel reports whether got is within rel of want (both zero counts as
// equal).
func withinRel(want, got, rel float64) bool {
	if want == got {
		return true
	}
	denom := math.Abs(want)
	if denom == 0 {
		return math.Abs(got) <= rel
	}
	return math.Abs(got-want)/denom <= rel
}
