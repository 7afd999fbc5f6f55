package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/frontier"
)

// The correctness gate: every round's outputs are compared with a reference
// and each item that differs counts as a wrong result. The references are
// the repository's golden corpus (the model is checked against its own
// corpus, not against hardware) and, for the fleet, a standalone server.

// relTol is the golden corpus's relative tolerance.
const relTol = 1e-9

// golden is the golden corpus, as per-suite files and indexed by
// (program, input, config).
type golden struct {
	files map[core.Suite]*check.GoldenFile
	index map[goldenKey]check.GoldenEntry
}

type goldenKey struct{ program, input, config string }

func loadGolden(root string) (*golden, error) {
	files, err := check.LoadGoldenDir(filepath.Join(root, "internal", "check", "testdata", "golden"))
	if err != nil {
		return nil, err
	}
	g := &golden{files: files, index: make(map[goldenKey]check.GoldenEntry)}
	for _, gf := range files {
		for _, e := range gf.Entries {
			g.index[goldenKey{e.Program, e.Input, e.Config}] = e
		}
	}
	return g, nil
}

// snapshotMismatches diffs a check.Snapshot against the corpus entries of
// the snapshotted programs and counts the combinations that differ.
func (g *golden) snapshotMismatches(got map[core.Suite]*check.GoldenFile) int {
	wrong := 0
	for suite, gf := range got {
		full, ok := g.files[suite]
		if !ok {
			wrong += len(gf.Entries)
			continue
		}
		progs := make(map[string]bool)
		for _, e := range gf.Entries {
			progs[e.Program] = true
		}
		want := &check.GoldenFile{StoreVersion: full.StoreVersion, Suite: full.Suite}
		for _, e := range full.Entries {
			if progs[e.Program] {
				want.Entries = append(want.Entries, e)
			}
		}
		// DiffGolden prints one "<program>/<input>@<config>: ..." line per
		// divergent metric; count each combination once.
		ids := make(map[string]bool)
		for _, d := range check.DiffGolden(want, gf, relTol) {
			id, _, _ := strings.Cut(d, ":")
			ids[id] = true
		}
		wrong += len(ids)
	}
	return wrong
}

// frontierMismatches checks each frontier at the four canonical
// configurations, which the golden corpus holds: ground truth (Time,
// Energy) and sensor medians (MeasTime, MeasEnergy). A clock-insensitive
// program's frontier is exact, so a sensitive verdict or an interpolated
// point is wrong too.
func (g *golden) frontierMismatches(results []*frontier.Result, canonical []string) int {
	wrong := 0
	for _, res := range results {
		if res.Sensitive || res.Interpolated() > 0 {
			wrong++
		}
		points := make(map[string]*frontier.Point, len(res.Points))
		for i := range res.Points {
			points[res.Points[i].Config.Name] = &res.Points[i]
		}
		for _, config := range canonical {
			want, ok := g.index[goldenKey{res.Program, res.Input, config}]
			pt := points[config]
			switch {
			case !ok || pt == nil || want.Insufficient == pt.Measurable:
				wrong++
			case want.Insufficient:
			case !within(want.TrueActiveTime, pt.Time) || !within(want.TrueEnergy, pt.Energy) ||
				!within(want.ActiveTime, pt.MeasTime) || !within(want.Energy, pt.MeasEnergy):
				wrong++
			}
		}
	}
	return wrong
}

// attribMismatches checks each attribution row: every launch's class
// energies sum bit-exactly to its dynamic energy, and at a canonical
// configuration the run's total equals the golden ground-truth energy.
func (g *golden) attribMismatches(rows []core.ProgramAttribution) int {
	wrong := 0
	for _, row := range rows {
		a := row.Attribution
		bad := false
		for _, la := range a.Launches {
			if la.Classes.Total() != la.DynamicJ {
				bad = true
			}
		}
		if want, ok := g.index[goldenKey{row.Program, row.Input, a.Config}]; ok && !want.Insufficient && !within(want.TrueEnergy, a.TotalJ) {
			bad = true
		}
		if bad {
			wrong++
		}
	}
	return wrong
}

// resultMismatches compares two GET /v1/results bodies, which must be
// byte-identical, and counts the result entries that differ.
func resultMismatches(want, got []byte) int {
	if bytes.Equal(want, got) {
		return 0
	}
	var w, g struct {
		Results []json.RawMessage `json:"results"`
	}
	if json.Unmarshal(want, &w) != nil || json.Unmarshal(got, &g) != nil {
		return max(1, len(w.Results))
	}
	n := 0
	for i := 0; i < min(len(w.Results), len(g.Results)); i++ {
		if !bytes.Equal(w.Results[i], g.Results[i]) {
			n++
		}
	}
	n += max(len(w.Results), len(g.Results)) - min(len(w.Results), len(g.Results))
	return max(n, 1) // equal entries in a different envelope still differ
}

// within reports whether got is within relTol of want.
func within(want, got float64) bool {
	return want == got || math.Abs(got-want) <= relTol*math.Abs(want)
}
