// Command gpubench runs one benchmark program at one clock configuration
// and prints its kernel launch breakdown, Figure-1-style power profile and
// K20Power measurement.
//
// Usage:
//
//	gpubench -prog NB -input 1m -config 614
//	gpubench -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/suites"
	"repro/internal/trace"
)

func main() {
	var (
		prog    = flag.String("prog", "NB", "program short name (see -list)")
		input   = flag.String("input", "", "input name (default: the program's default input)")
		config  = flag.String("config", "default", "clock configuration: default, 614, 324, ecc")
		list    = flag.Bool("list", false, "list available programs and exit")
		profile = flag.Bool("profile", true, "print the ASCII power profile")
	)
	flag.Parse()

	if *list {
		for _, p := range suites.All() {
			fmt.Printf("%-8s %-12s kernels=%-3d inputs=%v  %s\n",
				p.Name(), p.Suite(), p.KernelCount(), p.Inputs(), p.Description())
		}
		for _, p := range suites.Variants() {
			fmt.Printf("%-12s %-12s (variant)  %s\n", p.Name(), p.Suite(), p.Description())
		}
		for _, p := range suites.TooShort() {
			fmt.Printf("%-12s %-12s (excluded) %s\n", p.Name(), p.Suite(), p.Description())
		}
		return
	}

	p, err := suites.ByName(*prog)
	fatal(err)
	clk, err := kepler.ConfigByName(*config)
	fatal(err)
	in := *input
	if in == "" {
		in = p.DefaultInput()
	}

	// A run too short or too weak for the sensor is still broken down below;
	// only its measurement is excluded.
	dev, samples, m, err := core.Profile(context.Background(), p, in, clk, 1)
	if err != nil && !core.IsInsufficient(err) {
		fatal(err)
	}

	fmt.Printf("%s / input %s / %s\n\n", p.Name(), in, clk)

	// Kernel breakdown with behavioural metrics.
	type kstat struct {
		name     string
		launches int
		time     float64
		energy   float64
		stats    trace.KernelStats
	}
	agg := map[string]*kstat{}
	var names []string
	for _, l := range dev.Launches {
		k, ok := agg[l.Name]
		if !ok {
			k = &kstat{name: l.Name}
			agg[l.Name] = k
			names = append(names, l.Name)
		}
		k.launches += l.Repeat
		k.time += l.TotalDuration()
		k.energy += power.LaunchEnergy(clk, l) * float64(l.Repeat)
		k.stats.Add(&l.Stats)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].time > agg[names[j]].time })
	fmt.Printf("%-28s %9s %12s %12s %9s %7s %7s %7s\n",
		"kernel", "launches", "time [s]", "energy [J]", "power [W]", "coal", "simd", "diverg")
	for _, n := range names {
		k := agg[n]
		fmt.Printf("%-28s %9d %12.3f %12.1f %9.1f %7.2f %7.2f %7.2f\n",
			k.name, k.launches, k.time, k.energy, k.energy/k.time,
			k.stats.CoalescingEfficiency(), k.stats.SIMDEfficiency(), k.stats.DivergenceRatio())
	}
	fmt.Printf("%-28s %9s %12.3f %12.1f %9.1f\n\n", "TOTAL (simulator truth)", "",
		dev.ActiveTime(), power.ActiveEnergy(dev), power.ActiveEnergy(dev)/dev.ActiveTime())

	// The measurement through the sensor stack, from the run broken down above.
	if err != nil {
		fmt.Printf("measurement: %v\n", err)
		fmt.Println("(the paper excludes such runs from its results)")
		return
	}
	if *profile {
		report.Figure1(os.Stdout, samples, m)
	} else {
		fmt.Println("measured:", m)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpubench:", err)
		os.Exit(1)
	}
}
