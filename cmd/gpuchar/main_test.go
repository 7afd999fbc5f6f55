package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kepler"
)

// TestUnknownExperimentRefused: a misspelled name anywhere in -exp fails
// the whole run before any experiment prints, and the error lists every
// valid name.
func TestUnknownExperimentRefused(t *testing.T) {
	for _, exp := range []string{"tabel1", "table1,tabel2", "all,tabel2"} {
		var out bytes.Buffer
		err := run(context.Background(), core.NewRunner(), &out, exp, "NB", false, false, kepler.K20cDevice())
		if err == nil {
			t.Errorf("-exp %s: no error", exp)
			continue
		}
		for _, x := range experiments {
			if !strings.Contains(err.Error(), x.name) {
				t.Errorf("-exp %s: error %q does not name %s", exp, err, x.name)
			}
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s: wrote %d bytes before refusing:\n%s", exp, out.Len(), out.String())
		}
	}
}

// TestSelectionOrder: experiments run in the order named, 'all' expands in
// place to the battery, and a repeated name runs once.
func TestSelectionOrder(t *testing.T) {
	battery := experimentNames(true)
	for _, tc := range []struct {
		exp  string
		want []string
	}{
		{"all", battery},
		{"all,frontier", append(slices.Clone(battery), "frontier")},
		{"frontier,all", append([]string{"frontier"}, battery...)},
		{"table1, fig2,table1", []string{"table1", "fig2"}},
	} {
		selected, err := selectExperiments(tc.exp)
		if err != nil {
			t.Fatalf("-exp %s: %v", tc.exp, err)
		}
		var got []string
		for _, x := range selected {
			got = append(got, x.name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("-exp %s runs %v, want %v", tc.exp, got, tc.want)
		}
	}
	for _, name := range []string{"frontier", "devices", "attrib"} {
		if slices.Contains(battery, name) {
			t.Errorf("'all' runs %s; it runs only when named", name)
		}
	}
}

// TestUsageListsTable: the -exp help text names exactly the table's
// experiments, and as 'all' exactly its battery.
func TestUsageListsTable(t *testing.T) {
	usage := expUsage()
	lists := strings.Split(usage, ": ")
	if len(lists) != 2 {
		t.Fatalf("usage %q: want one name list after ': '", usage)
	}
	named, all, ok := strings.Cut(lists[1], "; 'all' expands in place to ")
	if !ok {
		t.Fatalf("usage %q does not spell out 'all'", usage)
	}
	if got, want := strings.Split(named, ","), experimentNames(false); !slices.Equal(got, want) {
		t.Errorf("usage names %v, table has %v", got, want)
	}
	if got, want := strings.Split(all, ","), experimentNames(true); !slices.Equal(got, want) {
		t.Errorf("usage expands 'all' to %v, table's battery is %v", got, want)
	}
}

// TestStoreFileRefused: -store naming a regular file, such as a results
// file written before launch traces were the store, exits with code 2
// before anything is measured or printed.
func TestStoreFileRefused(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "gpuchar")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	file := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(file, []byte(`{"version":2,"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-exp", "table2", "-programs", "NN", "-store", file)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("gpuchar -store <file>: %v, want exit code 2 (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "not a directory") || stdout.Len() != 0 {
		t.Errorf("stderr %q, stdout %q: want the refusal alone", stderr.String(), stdout.String())
	}
}
