// Command goldengen regenerates the golden measurement corpus under
// internal/check/testdata/golden: one JSON snapshot per benchmark suite,
// covering every program (default input) at every clock configuration,
// stamped with the current physics version (core.StoreVersion), and the
// trace digests (check.DigestFileName) of check.DigestCaptures, stamped
// with the capture version (core.CaptureVersion).
//
// Regenerate ONLY after a deliberate physics change (simulator, power
// model, sensor, or analyzer), together with a core.StoreVersion bump, or
// a deliberate capture change, together with a core.CaptureVersion bump:
//
//	go run ./cmd/goldengen            # writes internal/check/testdata/golden
//	go run ./cmd/goldengen -out /tmp/golden -v
//
// The golden-diff tests in internal/check fail with a per-metric diff when
// the current sweep no longer matches this corpus.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/suites"
)

func main() {
	var (
		out     = flag.String("out", "internal/check/testdata/golden", "output directory (one JSON file per suite)")
		reps    = flag.Int("reps", 3, "measurement repetitions per configuration (the paper uses 3)")
		verbose = flag.Bool("v", false, "print per-suite entry counts")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "goldengen:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runner := core.NewRunner()
	runner.Repetitions = *reps
	programs := suites.All()

	start := time.Now()
	files, err := check.Snapshot(ctx, runner, programs, kepler.Configs)
	if err != nil {
		fail(err)
	}
	if err := check.WriteGoldenDir(*out, files); err != nil {
		fail(err)
	}
	digests, err := check.TraceDigests(ctx, check.DigestCaptures(append(suites.All(), suites.Variants()...)))
	if err == nil {
		err = check.WriteTraceDigests(filepath.Join(*out, check.DigestFileName), digests)
	}
	if err != nil {
		fail(err)
	}

	var entries, excluded int
	for _, gf := range files {
		entries += len(gf.Entries)
		for _, e := range gf.Entries {
			if e.Insufficient {
				excluded++
			}
		}
		if *verbose {
			fmt.Printf(" %-12s %3d entries -> %s\n", gf.Suite, len(gf.Entries), check.SuiteFileName(core.Suite(gf.Suite)))
		}
	}
	fmt.Printf("goldengen: wrote %d suites, %d entries (%d insufficient) at store version %d and %d trace digests at capture version %d to %s in %v\n",
		len(files), entries, excluded, core.StoreVersion, len(digests), core.CaptureVersion, *out, time.Since(start).Round(time.Second))
}
