package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestStoreMisuseRefused: gpuchard exits with code 2 before it listens when
// -store names a regular file (a results file written before launch traces
// were the store), when a coordinator is given -store, and when a worker
// whose coordinator brokers its traces (-peers) is given -store.
func TestStoreMisuseRefused(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "gpuchard")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	file := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(file, []byte(`{"version":2,"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	traces := filepath.Join(dir, "traces")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"results file", []string{"-store", file}, "not a directory"},
		{"worker results file", []string{"-role", "worker", "-store", file}, "not a directory"},
		{"coordinator", []string{"-role", "coordinator", "-peers", "http://127.0.0.1:1", "-store", traces}, "coordinator"},
		{"brokered worker", []string{"-role", "worker", "-peers", "http://127.0.0.1:1", "-store", traces}, "-peers"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A server that wrongly starts is killed at the deadline.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("gpuchard %v: %v, want exit code 2 (stderr %q)", tc.args, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not say %q", stderr.String(), tc.want)
			}
		})
	}
	if _, err := os.Stat(traces); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused run created %s (%v)", traces, err)
	}
}
