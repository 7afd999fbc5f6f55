package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/kepler"
	"repro/internal/sim"
)

// toySet builds a small, fast program set covering three behaviours.
func toySet() []Program {
	return []Program{
		computeBoundToy(4000),
		memoryBoundToy(3000),
		irregularToy(3000),
	}
}

func TestTable1Toy(t *testing.T) {
	rows := Table1(toySet())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "toy-compute" || rows[0].Kernels != 1 {
		t.Errorf("row 0 = %+v", rows[0])
	}
}

func TestTable2Toy(t *testing.T) {
	r := NewRunner()
	rows, err := Table2(context.Background(), r, toySet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var overall *Table2Row
	for i := range rows {
		if rows[i].Suite == "Overall" {
			overall = &rows[i]
		}
		if rows[i].MaxTime < rows[i].AvgTime-1e-12 {
			t.Errorf("%s: max < avg", rows[i].Suite)
		}
	}
	if overall == nil {
		t.Fatal("no overall row")
	}
	if overall.AvgTime < 0 || overall.AvgTime > 0.15 {
		t.Errorf("overall avg variability %f implausible", overall.AvgTime)
	}
}

func TestFigureRatiosToy(t *testing.T) {
	r := NewRunner()
	rows, err := FigureRatios(context.Background(), r, toySet(), kepler.Default, kepler.F614)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // three suites represented by the toys
		t.Fatalf("suites = %d", len(rows))
	}
	for _, row := range rows {
		// Power must fall for everything at 614 (paper's observation 6).
		if row.Power.Max >= 1.0 {
			t.Errorf("%s: 614 power ratio max %.3f >= 1", row.Suite, row.Power.Max)
		}
		if row.Time.Min < 0.9 {
			t.Errorf("%s: implausible speedup %f", row.Suite, row.Time.Min)
		}
	}
	// The compute-bound toy must slow down more than the memory-bound one.
	var ct, mt float64
	for _, row := range rows {
		for _, e := range row.Entries {
			switch e.Program {
			case "toy-compute":
				ct = e.Time
			case "toy-memory":
				mt = e.Time
			}
		}
	}
	if ct <= mt {
		t.Errorf("compute-bound 614 slowdown %.3f <= memory-bound %.3f", ct, mt)
	}
}

func TestFigureRatiosExcludesInsufficient(t *testing.T) {
	tiny := &toyProgram{
		name:  "toy-tiny3",
		suite: SuiteSDK,
		run: func(dev *sim.GPU) error {
			dev.Launch("k", 16, 256, func(c *sim.Ctx) { c.FP32Ops(10) })
			return nil
		},
	}
	r := NewRunner()
	rows, err := FigureRatios(context.Background(), r, []Program{computeBoundToy(4000), tiny}, kepler.Default, kepler.F614)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	found := false
	for _, ex := range rows[0].Excluded {
		if strings.Contains(ex, "toy-tiny3") {
			found = true
		}
	}
	if !found {
		t.Errorf("tiny program not excluded: %+v", rows[0].Excluded)
	}
}

func TestFigure5Toy(t *testing.T) {
	multi := &toyProgram{
		name:   "toy-multi",
		suite:  SuiteSDK,
		inputs: []string{"small", "large"},
		run:    nil,
	}
	multi.runInput = func(dev *sim.GPU, input string) error {
		grid := 256
		if input == "large" {
			grid = 4096
		}
		dev.SetTimeScale(40)
		l := dev.Launch("k", grid, 256, func(c *sim.Ctx) { c.FP32Ops(800) })
		dev.Repeat(l, 40000/(grid/256))
		return nil
	}
	r := NewRunner()
	rows, err := Figure5(context.Background(), r, []Program{multi}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger grid -> fuller device -> more power.
	if rows[0].Power <= 1.0 {
		t.Errorf("power ratio %f, want > 1 for a fuller device", rows[0].Power)
	}
}

func TestFigure6Toy(t *testing.T) {
	r := NewRunner()
	rows, err := Figure6(context.Background(), r, toySet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Within one suite, power at 324 must sit below power at default.
	byKey := map[string]Fig6Row{}
	for _, row := range rows {
		byKey[string(row.Suite)+"/"+row.Config] = row
	}
	def, ok1 := byKey[string(SuiteSDK)+"/default"]
	low, ok2 := byKey[string(SuiteSDK)+"/324"]
	if ok1 && ok2 && low.Power.Median >= def.Power.Median {
		t.Errorf("324 median power %.1f >= default %.1f", low.Power.Median, def.Power.Median)
	}
}

func TestProfileToy(t *testing.T) {
	p := computeBoundToy(4000)
	_, samples, m, err := Profile(context.Background(), p, "default", kepler.Default, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 12 || m.ActiveTime <= 0 {
		t.Fatalf("profile too small: %d samples, %v", len(samples), m)
	}
}

func TestClassifyToy(t *testing.T) {
	r := NewRunner()
	classes, err := Classify(context.Background(), r, toySet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Class{}
	for _, c := range classes {
		byName[c.Program] = c
	}
	if c := byName["toy-compute"]; c.Kind != "compute-bound" {
		t.Errorf("toy-compute classified %q (coreSens %.2f, ecc %.3f)", c.Kind, c.CoreSensitivity, c.ECCSlowdown)
	}
	if c := byName["toy-memory"]; c.Kind != "memory-bound" {
		t.Errorf("toy-memory classified %q (coreSens %.2f, ecc %.3f)", c.Kind, c.CoreSensitivity, c.ECCSlowdown)
	}
	recs := RecommendSubset(classes)
	if len(recs) < 2 {
		t.Fatalf("recommendations = %d, want at least compute+memory picks", len(recs))
	}
	seen := map[string]bool{}
	for _, rec := range recs {
		if seen[rec.Program] {
			t.Errorf("program %s recommended twice", rec.Program)
		}
		seen[rec.Program] = true
		if rec.Reason == "" {
			t.Error("empty reason")
		}
	}
}

// toyVariant wraps a toy as a Variant of another toy.
type toyVariant struct {
	*toyProgram
	base string
}

func (v *toyVariant) BaseName() string    { return v.base }
func (v *toyVariant) VariantName() string { return "fast" }

// toyItems gives a toy fixed item counts.
type toyItems struct {
	*toyProgram
	v, e int64
}

func (p *toyItems) Items(string) (int64, int64) { return p.v, p.e }

func TestTable3Toy(t *testing.T) {
	base := computeBoundToy(4000)
	fast := &toyVariant{
		toyProgram: &toyProgram{
			name:  "toy-compute-fast",
			suite: SuiteSDK,
			run: func(dev *sim.GPU) error {
				data := dev.NewArray(1<<20, 4)
				l := dev.Launch("fma", 4096, 256, func(c *sim.Ctx) {
					c.Load(data.At(c.TID()), 4)
					c.FP32Ops(2000)
					c.Store(data.At(c.TID()), 4)
				})
				dev.Repeat(l, 2000) // half the base's iterations
				return nil
			},
		},
		base: base.Name(),
	}
	r := NewRunner()
	rows, excluded, err := Table3(context.Background(), r, base, []Program{fast}, "default", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(excluded) != 0 {
		t.Fatalf("unexpected exclusions: %v", excluded)
	}
	if len(rows) != len(kepler.Configs) {
		t.Fatalf("rows = %d, want one per config", len(rows))
	}
	for _, row := range rows {
		if row.Variant != "fast" || row.Base != base.Name() {
			t.Errorf("row identity wrong: %+v", row)
		}
		if row.Time < 0.3 || row.Time > 0.7 {
			t.Errorf("half-work variant time ratio %f, want ~0.5", row.Time)
		}
	}
}

func TestTable4Toy(t *testing.T) {
	a := &toyItems{toyProgram: computeBoundToy(4000), v: 200e3, e: 400e3}
	r := NewRunner()
	rows, err := Table4(context.Background(), r, []Program{a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	row := rows[0]
	// Per-vertex values must be exactly twice the per-edge values here.
	if math.Abs(row.TimeVert/row.TimeEdge-2) > 1e-9 {
		t.Errorf("vertex/edge normalization wrong: %f vs %f", row.TimeVert, row.TimeEdge)
	}
	// And a program without item counts must be rejected.
	if _, err := Table4(context.Background(), r, []Program{computeBoundToy(4000)}, nil); err == nil {
		t.Error("program without ItemCounts accepted")
	}
}

func TestCrossGPUToy(t *testing.T) {
	r := NewRunner()
	rows, err := CrossGPU(context.Background(), r, []Program{computeBoundToy(4000)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(kepler.Models) {
		t.Fatalf("rows = %d, want one per board", len(rows))
	}
	for _, row := range rows {
		if row.Time < 1.0 || row.Time > 1.3 {
			t.Errorf("%s: compute-bound lowered-clock ratio %f out of band", row.Board, row.Time)
		}
		if row.Power >= 1 {
			t.Errorf("%s: power did not drop (%f)", row.Board, row.Power)
		}
	}
}

func TestSortedEntries(t *testing.T) {
	row := FigRatioRow{Entries: []RatioEntry{{Program: "Z"}, {Program: "A"}}}
	s := row.SortedEntries()
	if s[0].Program != "A" || s[1].Program != "Z" {
		t.Errorf("not sorted: %+v", s)
	}
	if row.Entries[0].Program != "Z" {
		t.Error("SortedEntries mutated the row")
	}
}

func TestMetaAccessors(t *testing.T) {
	m := Meta{
		ProgName: "X", ProgSuite: SuiteSHOC, Desc: "d", Kernels: 3,
		InputNames: []string{"a", "b"}, Default: "b", IsIrregular: true,
	}
	if m.Name() != "X" || m.Suite() != SuiteSHOC || m.Description() != "d" ||
		m.KernelCount() != 3 || m.DefaultInput() != "b" || !m.Irregular() ||
		len(m.Inputs()) != 2 {
		t.Error("Meta accessors wrong")
	}
	if err := m.CheckInput("a"); err != nil {
		t.Error(err)
	}
	if err := m.CheckInput("zzz"); err == nil {
		t.Error("unknown input accepted")
	}
}

func TestFreqSweepToy(t *testing.T) {
	r := NewRunner()
	points, err := FreqSweep(context.Background(), r, computeBoundToy(4000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(kepler.K20cDevice().Settings) {
		t.Fatalf("points = %d, want %d", len(points), len(kepler.K20cDevice().Settings))
	}
	// Monotonicity for a compute-bound code: lower core clock, longer time
	// and lower power (among the 2600 MHz memory settings).
	var prev *FreqPoint
	for i := range points {
		pt := &points[i]
		if !pt.Measurable || pt.MemMHz != 2600 {
			continue
		}
		if prev != nil && prev.CoreMHz > pt.CoreMHz {
			if pt.Time < prev.Time {
				t.Errorf("time not monotone: %s %.3f after %s %.3f", pt.Config, pt.Time, prev.Config, prev.Time)
			}
			if pt.Power > prev.Power {
				t.Errorf("power not monotone: %s %.3f after %s %.3f", pt.Config, pt.Power, prev.Config, prev.Power)
			}
		}
		prev = pt
	}
	if best, ok := MinEnergyPoint(points); !ok || best.Energy > 1.0 {
		t.Errorf("no energy win found on the ladder: %+v", best)
	}
}
