// Package report renders the experiment results as text tables and ASCII
// box plots shaped like the paper's tables and figures.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/sensor"
	"repro/internal/stats"
)

// Table1 renders the program inventory.
func Table1(w io.Writer, rows []core.Table1Row) {
	fmt.Fprintln(w, "Table 1: Program names, number of global kernels (#K), and inputs")
	fmt.Fprintf(w, "%-14s %-12s %3s  %s\n", "Program", "Suite", "#K", "Inputs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-12s %3d  %s\n", r.Name, r.Suite, r.Kernels, strings.Join(r.Inputs, ", "))
	}
}

// Table2 renders the measurement-variability table.
func Table2(w io.Writer, rows []core.Table2Row) {
	fmt.Fprintln(w, "Table 2: Maximum and average measurement variability")
	fmt.Fprintf(w, "%-12s %9s %10s %9s %10s\n", "", "max time", "max energy", "avg time", "avg energy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8.1f%% %9.1f%% %8.1f%% %9.1f%%\n",
			r.Suite, 100*r.MaxTime, 100*r.MaxEnergy, 100*r.AvgTime, 100*r.AvgEnergy)
	}
}

// FigureRatios renders a per-suite ratio figure (Figures 2, 3, 4) as box
// summaries with per-program detail.
func FigureRatios(w io.Writer, title string, rows []core.FigRatioRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-12s  %-28s %-28s %-28s %s\n", "Suite",
		"time (min/q1/med/q3/max)", "energy", "power", "n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s  %-28s %-28s %-28s %d\n",
			r.Suite, boxStr(r.Time), boxStr(r.Energy), boxStr(r.Power), len(r.Entries))
	}
	for _, r := range rows {
		if len(r.Excluded) > 0 {
			fmt.Fprintf(w, "  excluded (%s): %s\n", r.Suite, strings.Join(r.Excluded, ", "))
		}
	}
	fmt.Fprintln(w, "  per-program ratios (time/energy/power):")
	for _, r := range rows {
		for _, e := range r.SortedEntries() {
			fmt.Fprintf(w, "    %-14s %-12s %5.2f %5.2f %5.2f\n", e.Program, r.Suite, e.Time, e.Energy, e.Power)
		}
	}
}

func boxStr(b stats.Box) string {
	return fmt.Sprintf("%.2f/%.2f/%.2f/%.2f/%.2f", b.Min, b.Q1, b.Median, b.Q3, b.Max)
}

// Table3 renders the implementation-variant comparison.
func Table3(w io.Writer, rows []core.Table3Row, excluded []string) {
	fmt.Fprintln(w, "Table 3: Effects of different implementations (variant/default ratios)")
	fmt.Fprintf(w, "%-8s %-10s %-10s %6s %6s %6s\n", "Base", "Variant", "Config", "time", "en", "pwr")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-10s %-10s %6.2f %6.2f %6.2f\n",
			r.Base, r.Variant, r.Config, r.Time, r.Energy, r.Power)
	}
	if len(excluded) > 0 {
		fmt.Fprintf(w, "  not measurable (insufficient samples): %s\n", strings.Join(excluded, ", "))
	}
}

// Table4 renders the cross-suite BFS comparison.
func Table4(w io.Writer, rows []core.Table4Row) {
	fmt.Fprintln(w, "Table 4: Cross-benchmark BFS comparison")
	fmt.Fprintln(w, "  per 100k processed vertices")
	fmt.Fprintf(w, "  %-8s %10s %12s %10s\n", "", "time [s]", "energy [J]", "power [W]")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %10.2f %12.2f %10.2f\n", r.Name, r.TimeVert, r.EnergyVert, r.PowerVert)
	}
	fmt.Fprintln(w, "  per 100k processed edges")
	fmt.Fprintf(w, "  %-8s %10s %12s %10s\n", "", "time [s]", "energy [J]", "power [W]")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %10.2f %12.2f %10.2f\n", r.Name, r.TimeEdge, r.EnergyEdge, r.PowerEdge)
	}
}

// Figure5 renders the input-scaling power ratios.
func Figure5(w io.Writer, rows []core.Fig5Row) {
	fmt.Fprintln(w, "Figure 5: Effects on power when varying the program inputs")
	fmt.Fprintf(w, "%-10s %-12s %-22s %s\n", "Program", "Suite", "inputs", "power ratio")
	for _, r := range rows {
		marker := ""
		if r.Power < 1 {
			marker = "  (decrease)"
		}
		fmt.Fprintf(w, "%-10s %-12s %-22s %10.3f%s\n", r.Program, r.Suite,
			r.From+" -> "+r.To, r.Power, marker)
	}
}

// Figure6 renders the absolute power ranges.
func Figure6(w io.Writer, rows []core.Fig6Row) {
	fmt.Fprintln(w, "Figure 6: Range of power consumption [W]")
	fmt.Fprintf(w, "%-12s %-8s %-34s %s\n", "Suite", "Config", "min/q1/med/q3/max", "programs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-8s %-34s %d\n", r.Suite, r.Config, boxStr(r.Power), len(r.Programs))
	}
}

// Figure1 renders an ASCII power profile of the raw sensor samples.
func Figure1(w io.Writer, samples []sensor.Sample, m k20power.Measurement) {
	fmt.Fprintln(w, "Figure 1: Sample power profile")
	if len(samples) == 0 {
		fmt.Fprintln(w, "  (no samples)")
		return
	}
	maxW := 0.0
	for _, s := range samples {
		if s.W > maxW {
			maxW = s.W
		}
	}
	const width = 60
	// Downsample to at most 50 lines.
	step := len(samples)/50 + 1
	for i := 0; i < len(samples); i += step {
		s := samples[i]
		bar := int(s.W / maxW * width)
		marker := " "
		if s.W >= m.ThresholdW {
			marker = "*"
		}
		fmt.Fprintf(w, "%7.1fs %6.1fW %s|%s\n", s.T, s.W, marker, strings.Repeat("#", bar))
	}
	fmt.Fprintf(w, "threshold %.1f W (starred samples are active); idle %.1f W\n", m.ThresholdW, m.IdleW)
	fmt.Fprintf(w, "measured: %s\n", m.String())
}

// CrossGPU renders the Kepler-family cross-check.
func CrossGPU(w io.Writer, rows []core.CrossGPURow) {
	fmt.Fprintln(w, "Cross-GPU check: lowered-core/default ratios per board (paper IV.B)")
	fmt.Fprintf(w, "%-6s %-8s %6s %6s %6s %12s\n", "Board", "Program", "time", "en", "pwr", "defaultW")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-8s %6.2f %6.2f %6.2f %12.1f\n",
			r.Board, r.Program, r.Time, r.Energy, r.Power, r.DefaultPower)
	}
}

// Classification renders the measured program classes and the recommended
// benchmark subset (the paper's section VI guidelines).
func Classification(w io.Writer, classes []core.Class, recs []core.Recommendation) {
	fmt.Fprintln(w, "Program classification (derived from measurements)")
	fmt.Fprintf(w, "%-8s %-12s %-14s %9s %9s %8s %8s %6s %6s\n",
		"Program", "Suite", "kind", "coreSens", "memSens", "eccSlow", "power", "irreg", "324ok")
	for _, c := range classes {
		fmt.Fprintf(w, "%-8s %-12s %-14s %9.2f %9.2f %7.1f%% %7.1fW %6v %6v\n",
			c.Program, c.Suite, c.Kind, c.CoreSensitivity, c.MemSensitivity,
			100*c.ECCSlowdown, c.AvgPowerW, c.Irregular, c.Measurable324)
	}
	fmt.Fprintln(w, "\nRecommended subset for power/energy studies (paper section VI):")
	for _, r := range recs {
		fmt.Fprintf(w, "  %-8s %-12s %s\n", r.Program, r.Suite, r.Reason)
	}
}

// BoxPlot renders per-suite ratio boxes as horizontal ASCII
// box-and-whisker diagrams, one per metric, visually shaped like the
// paper's Figures 2-4.
func BoxPlot(w io.Writer, title string, rows []core.FigRatioRow) {
	fmt.Fprintln(w, title)
	metrics := []struct {
		name string
		get  func(core.FigRatioRow) stats.Box
	}{
		{"time", func(r core.FigRatioRow) stats.Box { return r.Time }},
		{"energy", func(r core.FigRatioRow) stats.Box { return r.Energy }},
		{"power", func(r core.FigRatioRow) stats.Box { return r.Power }},
	}
	// Common scale across all boxes of a metric.
	for _, m := range metrics {
		lo, hi := 1.0, 1.0
		for _, r := range rows {
			b := m.get(r)
			if b.Min < lo {
				lo = b.Min
			}
			if b.Max > hi {
				hi = b.Max
			}
		}
		span := hi - lo
		if span <= 0 {
			span = 1
		}
		const width = 56
		scale := func(v float64) int {
			x := int((v - lo) / span * float64(width-1))
			if x < 0 {
				x = 0
			}
			if x >= width {
				x = width - 1
			}
			return x
		}
		fmt.Fprintf(w, "  %s (scale %.2f .. %.2f, '|' marks ratio 1.0)\n", m.name, lo, hi)
		for _, r := range rows {
			b := m.get(r)
			line := make([]byte, width)
			for i := range line {
				line[i] = ' '
			}
			for i := scale(b.Min); i <= scale(b.Max); i++ {
				line[i] = '-'
			}
			for i := scale(b.Q1); i <= scale(b.Q3); i++ {
				line[i] = '='
			}
			line[scale(b.Median)] = 'M'
			if 1.0 >= lo && 1.0 <= hi {
				i := scale(1.0)
				if line[i] == ' ' || line[i] == '-' {
					line[i] = '|'
				}
			}
			fmt.Fprintf(w, "  %-12s %s\n", r.Suite, string(line))
		}
	}
}

// FreqSweep renders a program's full DVFS-ladder response relative to the
// given default clocks.
func FreqSweep(w io.Writer, program string, def kepler.Clocks, points []core.FreqPoint) {
	fmt.Fprintf(w, "DVFS sweep for %s (ratios vs default %d/%d):\n", program, def.CoreMHz, def.MemMHz)
	fmt.Fprintf(w, "  %-8s %10s %8s %8s %8s\n", "setting", "core/mem", "time", "energy", "power")
	for _, pt := range points {
		if !pt.Measurable {
			fmt.Fprintf(w, "  %-8s %5d/%-5d %8s %8s %8s\n", pt.Config, pt.CoreMHz, pt.MemMHz, "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "  %-8s %5d/%-5d %8.2f %8.2f %8.2f\n",
			pt.Config, pt.CoreMHz, pt.MemMHz, pt.Time, pt.Energy, pt.Power)
	}
	if best, ok := core.MinEnergyPoint(points); ok {
		fmt.Fprintf(w, "  energy-minimal setting: %s (%.2fx energy at %.2fx runtime)\n",
			best.Config, best.Energy, best.Time)
	}
}

// Frontier renders one program's dense-grid DVFS frontier: grid size and
// measurable points, the sweet spots with their trade-off versus the paper's
// default configuration, the Pareto front, and the budgeted optimizer's
// convergence.
func Frontier(w io.Writer, res *frontier.Result) {
	measurable := 0
	for i := range res.Points {
		if res.Points[i].Measurable {
			measurable++
		}
	}
	fmt.Fprintf(w, "Frontier for %s (%s): %d configs, %d measurable\n",
		res.Program, res.Input, len(res.Points), measurable)

	var def *frontier.Point
	if res.DefaultIdx >= 0 {
		def = &res.Points[res.DefaultIdx]
	}
	fmt.Fprintf(w, "  %-9s %-10s %9s %10s %8s  %s\n", "", "config", "time [s]", "energy [J]", "EDP", "vs default (time/energy)")
	spot := func(label string, idx int, extra string) {
		if idx < 0 {
			fmt.Fprintf(w, "  %-9s %-10s %9s %10s %8s\n", label, "-", "-", "-", "-")
			return
		}
		pt := &res.Points[idx]
		ratios := ""
		if def != nil && def.Time > 0 && def.Energy > 0 {
			ratios = fmt.Sprintf("%.2fx / %.2fx", pt.Time/def.Time, pt.Energy/def.Energy)
		}
		fmt.Fprintf(w, "  %-9s %-10s %9.3f %10.1f %8.1f  %s%s\n",
			label, pt.Config.Name, pt.Time, pt.Energy, pt.EDP, ratios, extra)
	}
	spot("default", res.DefaultIdx, "")
	spot("EDP", res.EDPIdx, "")
	spot("ED2P", res.ED2PIdx, "")
	spot("optimizer", res.Opt.BestIdx,
		fmt.Sprintf("  (%d evals, budget %d of %d)", res.Opt.Evals, res.Opt.Budget, res.Opt.GridSize))

	names := make([]string, 0, len(res.Pareto))
	for _, idx := range res.Pareto {
		names = append(names, res.Points[idx].Config.Name)
	}
	fmt.Fprintf(w, "  Pareto front (%d): %s\n", len(names), strings.Join(names, " "))
}

// DeviceCompare renders the cross-device comparison as a pivot table: one
// row per program, one column group per GPU profile, so runtime, energy and
// power envelopes sit side by side.
func DeviceCompare(w io.Writer, rows []core.DeviceCompareRow) {
	fmt.Fprintln(w, "Cross-device comparison: each program at every profile's default clocks")
	var devs, progs []string
	class := map[string]string{}
	cell := map[string]map[string]core.DeviceCompareRow{}
	seenProg := map[string]bool{}
	for _, r := range rows {
		if _, ok := cell[r.Device]; !ok {
			devs = append(devs, r.Device)
			class[r.Device] = r.Class
			cell[r.Device] = map[string]core.DeviceCompareRow{}
		}
		cell[r.Device][r.Program] = r
		if !seenProg[r.Program] {
			seenProg[r.Program] = true
			progs = append(progs, r.Program)
		}
	}
	fmt.Fprintf(w, "%-14s", "")
	for _, d := range devs {
		fmt.Fprintf(w, " %-29s", d+" ("+class[d]+")")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s", "Program")
	for range devs {
		fmt.Fprintf(w, " %9s %9s %9s", "time[s]", "en[J]", "pwr[W]")
	}
	fmt.Fprintln(w)
	for _, p := range progs {
		fmt.Fprintf(w, "%-14s", p)
		for _, d := range devs {
			r, ok := cell[d][p]
			if !ok || !r.Measurable {
				fmt.Fprintf(w, " %9s %9s %9s", "-", "-", "-")
				continue
			}
			fmt.Fprintf(w, " %9.3f %9.1f %9.1f", r.Time, r.Energy, r.Power)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  '-' marks programs the profile cannot measure (too few power samples).")
}

// Findings renders the paper's conclusions checklist.
func Findings(w io.Writer, findings []core.Finding) {
	fmt.Fprintln(w, "Paper findings verified against fresh measurements:")
	pass := 0
	for _, f := range findings {
		mark := "FAIL"
		if f.Pass {
			mark = "ok"
			pass++
		}
		fmt.Fprintf(w, "  [%-4s] %-16s %s\n         measured: %s\n", mark, f.ID, f.Claim, f.Detail)
	}
	fmt.Fprintf(w, "%d of %d findings reproduced\n", pass, len(findings))
}
