package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Table1Row is one program's inventory entry (paper Table 1).
type Table1Row struct {
	Name    string
	Suite   Suite
	Kernels int
	Inputs  []string
}

// deviceOrK20c resolves the experiments' optional device parameter: nil
// selects the paper's K20c, anything else is used as given. Experiments read
// operating points from the device's canonical ladder (role order default,
// 614-analogue, 324-analogue, ECC), so the same battery runs on any profile.
func deviceOrK20c(dev *kepler.Device) *kepler.Device {
	if dev == nil {
		return kepler.K20cDevice()
	}
	return dev
}

// Table1 builds the program inventory.
func Table1(programs []Program) []Table1Row {
	rows := make([]Table1Row, 0, len(programs))
	for _, p := range programs {
		rows = append(rows, Table1Row{Name: p.Name(), Suite: p.Suite(), Kernels: p.KernelCount(), Inputs: p.Inputs()})
	}
	return rows
}

// Table2Row is one suite's measurement variability (paper Table 2): the
// maximum and average (max-min)/min spread across the three repetitions.
type Table2Row struct {
	Suite                                  Suite
	MaxTime, MaxEnergy, AvgTime, AvgEnergy float64
	Programs                               int
}

// Table2 measures every program at the device's default configuration and
// aggregates the repetition spreads per suite, plus an overall row (Suite
// "Overall"). A nil dev selects the paper's K20c.
func Table2(ctx context.Context, r *Runner, programs []Program, dev *kepler.Device) ([]Table2Row, error) {
	def := deviceOrK20c(dev).DefaultConfig()
	results, err := r.MeasureEach(ctx, EnumerateCombos(programs, []kepler.Clocks{def}, false))
	if err != nil {
		return nil, err
	}
	perSuite := map[Suite][]*Result{}
	for i, p := range programs {
		if res := results[i]; res != nil {
			perSuite[p.Suite()] = append(perSuite[p.Suite()], res)
		}
	}
	var rows []Table2Row
	var allT, allE []float64
	for _, s := range Suites {
		rs := perSuite[s]
		if len(rs) == 0 {
			continue
		}
		var ts, es []float64
		for _, res := range rs {
			ts = append(ts, res.TimeSpread())
			es = append(es, res.EnergySpread())
		}
		allT = append(allT, ts...)
		allE = append(allE, es...)
		rows = append(rows, Table2Row{
			Suite:     s,
			MaxTime:   stats.Quantile(ts, 1),
			MaxEnergy: stats.Quantile(es, 1),
			AvgTime:   stats.Mean(ts),
			AvgEnergy: stats.Mean(es),
			Programs:  len(rs),
		})
	}
	rows = append(rows, Table2Row{
		Suite:     "Overall",
		MaxTime:   stats.Quantile(allT, 1),
		MaxEnergy: stats.Quantile(allE, 1),
		AvgTime:   stats.Mean(allT),
		AvgEnergy: stats.Mean(allE),
		Programs:  len(allT),
	})
	return rows, nil
}

// RatioEntry is one program's metric ratios between two configurations.
type RatioEntry struct {
	Program             string
	Suite               Suite
	Time, Energy, Power float64
}

// FigRatioRow is one suite's box summary of configuration ratios (the
// paper's Figures 2, 3 and 4).
type FigRatioRow struct {
	Suite               Suite
	Time, Energy, Power stats.Box
	Entries             []RatioEntry
	Excluded            []string // programs without enough samples at either config
}

// FigureRatios measures every program at two configurations and summarizes
// the to/from ratios per suite. Programs whose run yields too few power
// samples at either configuration are excluded (the paper's treatment of
// the 324 MHz setting).
func FigureRatios(ctx context.Context, r *Runner, programs []Program, from, to kepler.Clocks) ([]FigRatioRow, error) {
	bySuite := map[Suite]*FigRatioRow{}
	order := []Suite{}
	get := func(s Suite) *FigRatioRow {
		if row, ok := bySuite[s]; ok {
			return row
		}
		row := &FigRatioRow{Suite: s}
		bySuite[s] = row
		order = append(order, s)
		return row
	}
	results, err := r.MeasureEach(ctx, EnumerateCombos(programs, []kepler.Clocks{from, to}, false))
	if err != nil {
		return nil, err
	}
	for i, p := range programs {
		row := get(p.Suite())
		a, b := results[2*i], results[2*i+1]
		if a == nil || b == nil {
			row.Excluded = append(row.Excluded, p.Name())
			continue
		}
		row.Entries = append(row.Entries, RatioEntry{
			Program: p.Name(),
			Suite:   p.Suite(),
			Time:    b.ActiveTime / a.ActiveTime,
			Energy:  b.Energy / a.Energy,
			Power:   b.AvgPower / a.AvgPower,
		})
	}
	var rows []FigRatioRow
	for _, s := range Suites {
		row, ok := bySuite[s]
		if !ok || len(row.Entries) == 0 {
			continue
		}
		var ts, es, ps []float64
		for _, e := range row.Entries {
			ts = append(ts, e.Time)
			es = append(es, e.Energy)
			ps = append(ps, e.Power)
		}
		row.Time = stats.BoxOf(ts)
		row.Energy = stats.BoxOf(es)
		row.Power = stats.BoxOf(ps)
		rows = append(rows, *row)
	}
	return rows, nil
}

// Table3Row is one variant/config cell of the paper's Table 3: the ratios
// of the variant's metrics to the default implementation's.
type Table3Row struct {
	Base, Variant, Config string
	Time, Energy, Power   float64
}

// Table3 compares alternate implementations against their base program on
// one input across all four configurations. Variants that cannot be
// measured (insufficient samples) are reported with zero ratios and listed
// in the returned exclusions, mirroring the paper's wlw/wlc BFS footnote.
// A nil dev selects the paper's K20c.
func Table3(ctx context.Context, r *Runner, base Program, variants []Program, input string, dev *kepler.Device) ([]Table3Row, []string, error) {
	cfgs := deviceOrK20c(dev).Configurations()
	var combos []Combo
	for _, p := range append([]Program{base}, variants...) {
		for _, clk := range cfgs {
			combos = append(combos, Combo{p, input, clk})
		}
	}
	results, err := r.MeasureEach(ctx, combos)
	if err != nil {
		return nil, nil, err
	}
	var rows []Table3Row
	var excluded []string
	for vi, v := range variants {
		for ci, clk := range cfgs {
			b, vr := results[ci], results[(vi+1)*len(cfgs)+ci]
			if b == nil {
				return nil, nil, fmt.Errorf("base %s: %w", base.Name(), exclusionError(combos[ci]))
			}
			if vr == nil {
				excluded = append(excluded, v.Name()+"@"+clk.Name)
				continue
			}
			name := v.Name()
			if vv, ok := v.(Variant); ok {
				name = vv.VariantName()
			}
			rows = append(rows, Table3Row{
				Base:    base.Name(),
				Variant: name,
				Config:  clk.Name,
				Time:    vr.ActiveTime / b.ActiveTime,
				Energy:  vr.Energy / b.Energy,
				Power:   vr.AvgPower / b.AvgPower,
			})
		}
	}
	return rows, excluded, nil
}

// Table4Row is one BFS implementation's per-item costs (paper Table 4):
// active time [s], energy [J] and power [W] per 100k processed vertices and
// per 100k processed edges.
type Table4Row struct {
	Name                            string
	TimeVert, EnergyVert, PowerVert float64
	TimeEdge, EnergyEdge, PowerEdge float64
	Vertices, Edges                 int64
}

// Table4 compares BFS implementations across suites at the device's default
// configuration, normalizing by processed items. Programs must implement
// ItemCounts. A nil dev selects the paper's K20c.
func Table4(ctx context.Context, r *Runner, bfs []Program, dev *kepler.Device) ([]Table4Row, error) {
	for _, p := range bfs {
		if _, ok := p.(ItemCounts); !ok {
			return nil, fmt.Errorf("%s does not report item counts", p.Name())
		}
	}
	combos := EnumerateCombos(bfs, []kepler.Clocks{deviceOrK20c(dev).DefaultConfig()}, false)
	results, err := r.MeasureEach(ctx, combos)
	if err != nil {
		return nil, err
	}
	var rows []Table4Row
	for i, p := range bfs {
		res := results[i]
		if res == nil {
			return nil, exclusionError(combos[i])
		}
		v, e := p.(ItemCounts).Items(p.DefaultInput())
		if v <= 0 || e <= 0 {
			return nil, fmt.Errorf("%s: no items", p.Name())
		}
		kv := float64(v) / 100e3
		ke := float64(e) / 100e3
		rows = append(rows, Table4Row{
			Name:       p.Name(),
			TimeVert:   res.ActiveTime / kv,
			EnergyVert: res.Energy / kv,
			PowerVert:  res.AvgPower / kv,
			TimeEdge:   res.ActiveTime / ke,
			EnergyEdge: res.Energy / ke,
			PowerEdge:  res.AvgPower / ke,
			Vertices:   v,
			Edges:      e,
		})
	}
	return rows, nil
}

// Fig5Row is one input transition's power ratio (paper Figure 5).
type Fig5Row struct {
	Program  string
	Suite    Suite
	From, To string
	Power    float64 // power(to)/power(from)
}

// Figure5 measures every program with at least two inputs at the device's
// default configuration and reports the power ratio of each input step.
// A nil dev selects the paper's K20c.
func Figure5(ctx context.Context, r *Runner, programs []Program, dev *kepler.Device) ([]Fig5Row, error) {
	var multi []Program
	for _, p := range programs {
		if len(p.Inputs()) >= 2 {
			multi = append(multi, p)
		}
	}
	results, err := r.MeasureEach(ctx, EnumerateCombos(multi, []kepler.Clocks{deviceOrK20c(dev).DefaultConfig()}, true))
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, p := range multi {
		inputs := p.Inputs()
		for i := 1; i < len(inputs); i++ {
			a, b := results[i-1], results[i]
			if a == nil || b == nil {
				continue
			}
			rows = append(rows, Fig5Row{
				Program: p.Name(),
				Suite:   p.Suite(),
				From:    inputs[i-1],
				To:      inputs[i],
				Power:   b.AvgPower / a.AvgPower,
			})
		}
		results = results[len(inputs):]
	}
	return rows, nil
}

// Fig6Row is one suite/configuration cell of the paper's Figure 6: the
// range of absolute average power across the suite's programs.
type Fig6Row struct {
	Suite    Suite
	Config   string
	Power    stats.Box
	Programs []string
}

// Figure6 measures every program at every canonical configuration of the
// device and reports the absolute power ranges per suite. A nil dev selects
// the paper's K20c.
func Figure6(ctx context.Context, r *Runner, programs []Program, dev *kepler.Device) ([]Fig6Row, error) {
	cfgs := deviceOrK20c(dev).Configurations()
	results, err := r.MeasureEach(ctx, EnumerateCombos(programs, cfgs, false))
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for _, s := range Suites {
		for ci, clk := range cfgs {
			var ps []float64
			var names []string
			for pi, p := range programs {
				res := results[pi*len(cfgs)+ci]
				if p.Suite() != s || res == nil {
					continue
				}
				ps = append(ps, res.AvgPower)
				names = append(names, p.Name())
			}
			if len(ps) == 0 {
				continue
			}
			rows = append(rows, Fig6Row{Suite: s, Config: clk.Name, Power: stats.BoxOf(ps), Programs: names})
		}
	}
	return rows, nil
}

// Profile runs a program once, prices the run at clk and returns the priced
// device, the raw sensor samples and the K20Power analysis — the paper's
// Figure 1 view. The sensor and analysis models come from the
// configuration's device description. A failed run returns a nil device; a
// run whose analysis fails returns the device and samples along with the
// analysis error.
func Profile(ctx context.Context, p Program, input string, clk kepler.Clocks, seed uint64) (*sim.Device, []sensor.Sample, k20power.Measurement, error) {
	gpu := sim.NewGPU(clk.Device())
	if err := RunProgram(ctx, p, gpu, input); err != nil {
		return nil, nil, k20power.Measurement{}, err
	}
	dev, err := gpu.Trace().Replay(clk)
	if err != nil {
		return nil, nil, k20power.Measurement{}, err
	}
	samples := sensor.Record(power.Timeline(dev), clk.Device().Sensor, seed)
	m, err := k20power.Analyze(samples, clk.Device())
	return dev, samples, m, err
}

// SortedEntries returns the entries of a ratio row ordered by program name
// (stable output for reports).
func (f *FigRatioRow) SortedEntries() []RatioEntry {
	out := append([]RatioEntry(nil), f.Entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Program < out[j].Program })
	return out
}

// CrossGPURow holds one program's 614-analogue/default ratios on one
// Kepler-family board (the paper's section IV.B cross-check: "initial
// experiments on K20c, K20m, K20x, and K40 GPUs ... resulted in the same
// findings after appropriately scaling the absolute measurements").
type CrossGPURow struct {
	Board               string
	Program             string
	Time, Energy, Power float64 // ratios lowered-core/default on that board
	DefaultPower        float64 // absolute, to show the scaling differs
}

// CrossGPU measures the given programs on every Kepler-family board at that
// board's default clocks and its 614-analogue, reporting the ratios. The
// findings (ratio shapes) should agree across boards even though absolute
// power differs.
func CrossGPU(ctx context.Context, r *Runner, programs []Program) ([]CrossGPURow, error) {
	var combos []Combo
	for _, m := range kepler.Models {
		combos = append(combos, EnumerateCombos(programs, m.Configurations()[:2], false)...)
	}
	results, err := r.MeasureEach(ctx, combos)
	if err != nil {
		return nil, err
	}
	var rows []CrossGPURow
	for _, m := range kepler.Models {
		for _, p := range programs {
			a, b := results[0], results[1]
			results = results[2:]
			if a == nil || b == nil {
				continue
			}
			rows = append(rows, CrossGPURow{
				Board:        m.Name,
				Program:      p.Name(),
				Time:         b.ActiveTime / a.ActiveTime,
				Energy:       b.Energy / a.Energy,
				Power:        b.AvgPower / a.AvgPower,
				DefaultPower: a.AvgPower,
			})
		}
	}
	return rows, nil
}

// DeviceCompareRow holds one program's absolute metrics on one GPU profile
// at that profile's default clocks: the cross-device comparison experiment
// (same programs, different device descriptions, runtime/power/energy side
// by side).
type DeviceCompareRow struct {
	Device  string
	Class   string
	Program string
	// Time, Energy, Power are the measured medians at the device's default
	// configuration (absolute, not ratios — the point is how the envelopes
	// differ across classes).
	Time, Energy, Power float64
	// Measurable is false when the device's sensor could not collect enough
	// samples for this program (fast parts finish before the sampler sees
	// them, mirroring the paper's 324 MHz exclusions).
	Measurable bool
}

// DeviceCompare measures every program on every given device profile at the
// profile's default configuration. Nil devices means kepler.Profiles() (one
// representative per class: K20c, Pascal-class, Jetson-class).
func DeviceCompare(ctx context.Context, r *Runner, programs []Program, devices []*kepler.Device) ([]DeviceCompareRow, error) {
	if len(devices) == 0 {
		devices = kepler.Profiles()
	}
	var combos []Combo
	for _, d := range devices {
		combos = append(combos, EnumerateCombos(programs, []kepler.Clocks{d.DefaultConfig()}, false)...)
	}
	results, err := r.MeasureEach(ctx, combos)
	if err != nil {
		return nil, err
	}
	var rows []DeviceCompareRow
	for _, d := range devices {
		for _, p := range programs {
			row := DeviceCompareRow{Device: d.Name, Class: d.Class, Program: p.Name()}
			// A nil result is excluded on this device, reported as a dash.
			if res := results[len(rows)]; res != nil {
				row.Measurable = true
				row.Time = res.ActiveTime
				row.Energy = res.Energy
				row.Power = res.AvgPower
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FreqPoint is one program's response at one clock setting, relative to
// the paper's default configuration.
type FreqPoint struct {
	Config              string
	CoreMHz, MemMHz     int
	Time, Energy, Power float64 // ratios vs default
	Measurable          bool
}

// FreqSweep measures a program across the device's full supported DVFS
// ladder (six settings on the K20c, of which the paper evaluated three) and
// reports each setting's runtime, energy and power relative to the default
// clocks. Settings whose runs yield too few samples are flagged rather than
// dropped. A nil dev selects the paper's K20c.
func FreqSweep(ctx context.Context, r *Runner, p Program, dev *kepler.Device) ([]FreqPoint, error) {
	d := deviceOrK20c(dev)
	combos := EnumerateCombos([]Program{p}, append([]kepler.Clocks{d.DefaultConfig()}, d.Settings...), false)
	results, err := r.MeasureEach(ctx, combos)
	if err != nil {
		return nil, err
	}
	base := results[0]
	if base == nil {
		return nil, exclusionError(combos[0])
	}
	var points []FreqPoint
	for i, clk := range d.Settings {
		pt := FreqPoint{Config: clk.Name, CoreMHz: clk.CoreMHz, MemMHz: clk.MemMHz}
		// A nil result keeps the point, unmeasurable.
		if res := results[i+1]; res != nil {
			pt.Measurable = true
			pt.Time = res.ActiveTime / base.ActiveTime
			pt.Energy = res.Energy / base.Energy
			pt.Power = res.AvgPower / base.AvgPower
		}
		points = append(points, pt)
	}
	return points, nil
}

// MinEnergyPoint returns the measurable sweep point with the lowest energy
// ratio (the DVFS sweet spot the paper's motivation asks about).
func MinEnergyPoint(points []FreqPoint) (FreqPoint, bool) {
	var best FreqPoint
	found := false
	for _, pt := range points {
		if !pt.Measurable {
			continue
		}
		if !found || pt.Energy < best.Energy {
			best = pt
			found = true
		}
	}
	return best, found
}
