package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// spec is BENCHMARK.json: the workloads and the metric tables. It is the one
// place the metric names, units and regression bounds are written down; the
// benchmark emits exactly the metrics it lists and -compare judges against
// its bounds.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricSpec  `json:"end_to_end"`
	PerLayer   []metricSpec  `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec is one metric. Bound, the share of the baseline median by
// which the metric may worsen before it counts as a regression, is set on
// end-to-end metrics only.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const specFile = "BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads and validates root/BENCHMARK.json.
func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return nil, err
	}
	return parseSpec(data)
}

// parseSpec decodes a BENCHMARK.json document strictly (unknown keys are
// errors) and validates it.
func parseSpec(data []byte) (*spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

func (s *spec) validate() error {
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per_layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	checkName := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := checkName(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := m.validate(checkName); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("end_to_end %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		return fmt.Errorf(`end_to_end lacks "setup_s" in s, lower is better`)
	}
	for _, m := range s.PerLayer {
		if err := m.validate(checkName); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per_layer %s: has a bound", m.Name)
		}
	}
	return nil
}

func (m metricSpec) validate(checkName func(string) error) error {
	if err := checkName(m.Name); err != nil {
		return err
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better must be lower or higher, not %q", m.Name, m.Better)
	}
	return nil
}

// findRoot walks up from the working directory to the repository root, the
// directory holding BENCHMARK.json, so the benchmark and its tests run from
// the root or from bench/ alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s in the working directory or above", specFile)
		}
		dir = parent
	}
}
