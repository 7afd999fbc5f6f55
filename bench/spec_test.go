package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestRepositorySpecMatchesTheBenchmark(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var inSpec, inCode []string
	whys := make(map[string]string)
	for _, w := range sp.Workloads {
		inSpec = append(inSpec, w.Name)
		whys[w.Name] = w.Why
	}
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	if strings.Join(inSpec, " ") != strings.Join(inCode, " ") {
		t.Errorf("workloads: %s lists %v, the benchmark runs %v", specFile, inSpec, inCode)
	}
	// The grid workloads' program list is written out in the spec, so a
	// change to the clock-sensitive set cannot quietly redefine them.
	if why := whys["frontier_grid"]; !strings.Contains(why, "("+strings.Join(ins20, " ")+")") {
		t.Errorf("frontier_grid's why does not name INS20: %q", why)
	}
	// Per-program CPU is listed for exactly the programs a workload runs.
	var listed []string
	for _, m := range sp.PerLayer {
		if p, ok := strings.CutPrefix(m.Name, "core.program_cpu_s."); ok {
			listed = append(listed, p)
		}
	}
	runs := map[string]bool{}
	for _, p := range append(append([]string(nil), cold22...), ins20...) {
		runs[p] = true
	}
	var ran []string
	for p := range runs {
		ran = append(ran, p)
	}
	sort.Strings(listed)
	sort.Strings(ran)
	if strings.Join(listed, " ") != strings.Join(ran, " ") {
		t.Errorf("core.program_cpu_s.* lists %v, the workloads run %v", listed, ran)
	}
	if sp.Command[0] != "bash" || sp.Command[1] != "bench/run.sh" {
		t.Errorf("command %v does not run bench/run.sh", sp.Command)
	}
	if _, err := os.Stat(filepath.Join(root, "bench", "run.sh")); err != nil {
		t.Error(err)
	}
}

func TestParseSpecBounds(t *testing.T) {
	const valid = `{
  "command": ["bash", "bench/run.sh"],
  "paths": ["bench"],
  "run_seconds": 10,
  "workloads": [{"name": "a", "why": "one"}, {"name": "b", "why": "two"}],
  "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.08}
  ],
  "per_layer": [{"name": "x.count", "unit": "count", "better": "higher"}]
}`
	sp, err := parseSpec([]byte(valid))
	if err != nil {
		t.Fatal(err)
	}
	if m := sp.EndToEnd[1]; m.Name != "wall_s" || *m.Bound != 0.08 {
		t.Errorf("second end-to-end metric = %s bound %v, want wall_s bound 0.08", m.Name, *m.Bound)
	}
	for _, c := range []struct{ name, from, to string }{
		{"bound above 0.25", `"bound": 0.08`, `"bound": 0.3`},
		{"missing bound", `, "bound": 0.08`, ``},
		{"no setup_s", `"name": "setup_s"`, `"name": "prep_s"`},
		{"per-layer bound", `"better": "higher"}`, `"better": "higher", "bound": 0.1}`},
		{"duplicate name", `"name": "wall_s"`, `"name": "setup_s"`},
		{"bad unit", `"unit": "count"`, `"unit": "a count"`},
		{"unknown key", `"run_seconds": 10,`, `"run_seconds": 10, "extra": 1,`},
		{"one workload", `, {"name": "b", "why": "two"}`, ``},
	} {
		doc := strings.Replace(valid, c.from, c.to, 1)
		if doc == valid {
			t.Fatalf("%s: replacement did not apply", c.name)
		}
		if _, err := parseSpec([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
