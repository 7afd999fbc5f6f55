// Command k20power is a standalone power-log analyzer in the spirit of
// Burtscher, Zecena and Zong's K20Power tool: it reads a CSV of
// (seconds, watts) sensor samples, detects the active region, compensates
// the sensor's running average, and reports active runtime, energy and
// average power.
//
// With -emit PROGRAM[,INPUT[,CONFIG]], it instead runs a benchmark on the
// simulated device and writes the raw sensor log to stdout, so that
//
//	k20power -emit LBM,100 > lbm.csv
//	k20power lbm.csv
//
// round-trips through the same file format.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/sensor"
	"repro/internal/suites"
)

func main() {
	var (
		emit = flag.String("emit", "", "run PROGRAM[,INPUT[,CONFIG]] and emit its sensor log as CSV")
		seed = flag.Uint64("seed", 1, "sensor noise seed for -emit")
	)
	flag.Parse()

	if *emit != "" {
		if err := emitLog(os.Stdout, *emit, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "k20power:", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: k20power [-emit PROG[,INPUT[,CONFIG]]] [file.csv]")
		os.Exit(2)
	}
	samples, err := readCSV(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "k20power:", err)
		os.Exit(1)
	}
	if _, err := report(os.Stdout, samples); err != nil {
		fmt.Fprintln(os.Stderr, "k20power:", err)
		os.Exit(1)
	}
}

// report analyzes a sensor log recorded on the K20c and writes the
// measurement to w.
func report(w io.Writer, samples []sensor.Sample) (k20power.Measurement, error) {
	m, err := k20power.Analyze(samples, kepler.K20cDevice())
	if err != nil {
		return m, err
	}
	fmt.Fprintf(w, "samples:        %d\n", len(samples))
	fmt.Fprintf(w, "idle level:     %.2f W\n", m.IdleW)
	fmt.Fprintf(w, "threshold:      %.2f W\n", m.ThresholdW)
	fmt.Fprintf(w, "active samples: %d\n", m.ActiveSamples)
	fmt.Fprintf(w, "active runtime: %.3f s\n", m.ActiveTime)
	fmt.Fprintf(w, "energy:         %.2f J\n", m.Energy)
	fmt.Fprintf(w, "average power:  %.2f W\n", m.AvgPower)
	return m, nil
}

// emitLog runs the PROGRAM[,INPUT[,CONFIG]] spec on the K20c and writes its
// sensor log to w as CSV.
func emitLog(w io.Writer, spec string, seed uint64) error {
	parts := strings.Split(spec, ",")
	p, err := suites.ByName(parts[0])
	if err != nil {
		return err
	}
	input := p.DefaultInput()
	if len(parts) > 1 {
		input = parts[1]
	}
	clk := kepler.Default
	if len(parts) > 2 {
		clk, err = kepler.ConfigByName(parts[2])
		if err != nil {
			return err
		}
	}
	_, samples, _, err := core.Profile(context.Background(), p, input, clk, seed)
	if err != nil && samples == nil {
		return err
	}
	return sensor.WriteCSV(w, samples)
}

func readCSV(path string) ([]sensor.Sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := sensor.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return samples, nil
}
