package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/kepler"
	"repro/internal/power"
)

func testGolden(t *testing.T) *golden {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden(root)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenEntries returns the corpus entries of one program.
func goldenEntries(g *golden, program string) []check.GoldenEntry {
	var out []check.GoldenEntry
	for _, gf := range g.files {
		for _, e := range gf.Entries {
			if e.Program == program {
				out = append(out, e)
			}
		}
	}
	return out
}

func TestGateSnapshotDetectsOnePerturbedResult(t *testing.T) {
	g := testGolden(t)
	snapshot := func() map[core.Suite]*check.GoldenFile {
		got := make(map[core.Suite]*check.GoldenFile)
		for _, prog := range []string{"EIP", "NN"} {
			for suite, gf := range g.files {
				for _, e := range gf.Entries {
					if e.Program != prog {
						continue
					}
					if got[suite] == nil {
						got[suite] = &check.GoldenFile{StoreVersion: gf.StoreVersion, Suite: gf.Suite}
					}
					got[suite].Entries = append(got[suite].Entries, e)
				}
			}
		}
		return got
	}
	if n := g.snapshotMismatches(snapshot()); n != 0 {
		t.Fatalf("unperturbed snapshot: %d mismatches", n)
	}
	got := snapshot()
	for _, gf := range got {
		for i := range gf.Entries {
			if gf.Entries[i].Program == "NN" && gf.Entries[i].Config == "614" {
				gf.Entries[i].Energy *= 1 + 1e-6
				gf.Entries[i].AvgPower *= 1 + 1e-6 // two metrics of one combination count once
			}
		}
	}
	if n := g.snapshotMismatches(got); n != 1 {
		t.Errorf("one perturbed combination: %d mismatches, want 1", n)
	}
}

// frontierFromGolden builds a frontier result whose canonical points carry
// the golden values.
func frontierFromGolden(g *golden, program string) *frontier.Result {
	res := &frontier.Result{Program: program}
	for _, e := range goldenEntries(g, program) {
		res.Input = e.Input
		res.Points = append(res.Points, frontier.Point{
			Config:     kepler.Clocks{Name: e.Config},
			Measurable: !e.Insufficient,
			Time:       e.TrueActiveTime, Energy: e.TrueEnergy,
			MeasTime: e.ActiveTime, MeasEnergy: e.Energy,
		})
	}
	return res
}

func TestGateFrontierDetectsOnePerturbedResult(t *testing.T) {
	g := testGolden(t)
	results := []*frontier.Result{frontierFromGolden(g, "EIP"), frontierFromGolden(g, "NN")}
	if n := g.frontierMismatches(results, canonicalNames()); n != 0 {
		t.Fatalf("unperturbed frontier: %d mismatches", n)
	}
	results[1].Points[2].MeasTime *= 1 + 1e-6
	if n := g.frontierMismatches(results, canonicalNames()); n != 1 {
		t.Errorf("one perturbed point: %d mismatches, want 1", n)
	}
}

// attributionFromGolden builds attribution rows whose totals carry the
// golden ground-truth energies and whose launches tie out.
func attributionFromGolden(g *golden, program string) []core.ProgramAttribution {
	var rows []core.ProgramAttribution
	for _, e := range goldenEntries(g, program) {
		var la power.LaunchAttribution
		la.Classes[0], la.Classes[1] = 0.1, 0.2
		la.DynamicJ = la.Classes.Total()
		rows = append(rows, core.ProgramAttribution{
			Program: program, Input: e.Input,
			Attribution: &power.Attribution{Config: e.Config, Launches: []power.LaunchAttribution{la}, TotalJ: e.TrueEnergy},
		})
	}
	return rows
}

func TestGateAttributionDetectsOnePerturbedResult(t *testing.T) {
	g := testGolden(t)
	rows := append(attributionFromGolden(g, "EIP"), attributionFromGolden(g, "NN")...)
	if n := g.attribMismatches(rows); n != 0 {
		t.Fatalf("unperturbed attribution: %d mismatches", n)
	}
	la := &rows[5].Attribution.Launches[0]
	la.DynamicJ = math.Nextafter(la.DynamicJ, 1) // one ULP off the class sum
	if n := g.attribMismatches(rows); n != 1 {
		t.Errorf("one perturbed launch: %d mismatches, want 1", n)
	}
	rows[5].Attribution.Launches[0].DynamicJ = rows[5].Attribution.Launches[0].Classes.Total()
	rows[6].Attribution.TotalJ *= 1 + 1e-6
	if n := g.attribMismatches(rows); n != 1 {
		t.Errorf("one perturbed total: %d mismatches, want 1", n)
	}
}

func TestGateResultsDetectsOnePerturbedResult(t *testing.T) {
	want := []byte(`{"version":1,"count":3,"results":[{"program":"A","energy":1},{"program":"B","energy":2},{"program":"C","energy":3}]}` + "\n")
	if n := resultMismatches(want, want); n != 0 {
		t.Fatalf("identical bodies: %d mismatches", n)
	}
	got := []byte(strings.Replace(string(want), `"energy":2`, `"energy":2.0000001`, 1))
	if n := resultMismatches(want, got); n != 1 {
		t.Errorf("one perturbed entry: %d mismatches, want 1", n)
	}
}
