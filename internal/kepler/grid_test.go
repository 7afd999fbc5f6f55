package kepler

import (
	"reflect"
	"testing"
)

func TestDefaultGridShape(t *testing.T) {
	grid, err := K20cDevice().Grid(K20cDevice().DefaultGrid())
	if err != nil {
		t.Fatalf("K20c default grid: %v", err)
	}
	if len(grid) < 80 {
		t.Fatalf("default grid has %d configs, want >= 80", len(grid))
	}
	if len(grid) != 99 {
		t.Errorf("default grid has %d configs, want 99", len(grid))
	}
	checkGridProperties(t, grid)
}

func TestGridCanonicalFirstAndBitIdentical(t *testing.T) {
	grid, err := K20cDevice().Grid(K20cDevice().DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) < len(Configs) {
		t.Fatalf("grid shorter than canonical set: %d", len(grid))
	}
	for i, want := range Configs {
		if !reflect.DeepEqual(grid[i], want) {
			t.Errorf("grid[%d] = %+v, want canonical %+v", i, grid[i], want)
		}
	}
}

func TestVoltageForLadderRungs(t *testing.T) {
	d := K20cDevice()
	for _, rung := range d.ladder {
		if got := d.VoltageFor(rung.mhz); got != rung.v {
			t.Errorf("VoltageFor(%d) = %v, want ladder value %v", rung.mhz, got, rung.v)
		}
	}
	// Clamped outside the ladder.
	if got := d.VoltageFor(100); got != 0.85 {
		t.Errorf("VoltageFor(100) = %v, want clamp 0.85", got)
	}
	if got := d.VoltageFor(900); got != 1.05 {
		t.Errorf("VoltageFor(900) = %v, want clamp 1.05", got)
	}
	// Canonical voltages reproduce exactly.
	for _, c := range []Clocks{Default, F614, F324} {
		if got := d.VoltageFor(c.CoreMHz); got != c.VoltageV {
			t.Errorf("VoltageFor(%d) = %v, want canonical %v", c.CoreMHz, got, c.VoltageV)
		}
	}
}

func TestVoltageForMonotone(t *testing.T) {
	d := K20cDevice()
	prev := d.VoltageFor(1)
	for mhz := 2; mhz <= 1000; mhz++ {
		v := d.VoltageFor(mhz)
		if v < prev {
			t.Fatalf("VoltageFor not monotone: V(%d)=%v < V(%d)=%v", mhz, v, mhz-1, prev)
		}
		prev = v
	}
}

func TestGridSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec GridSpec
		ok   bool
	}{
		{"default", K20cDevice().DefaultGrid(), true},
		{"single point", GridSpec{CoreMinMHz: 705, CoreMaxMHz: 705, CoreStepMHz: 1, MemMHz: []int{2600}}, true},
		{"zero min", GridSpec{CoreMinMHz: 0, CoreMaxMHz: 705, CoreStepMHz: 14, MemMHz: []int{2600}}, false},
		{"negative max", GridSpec{CoreMinMHz: 324, CoreMaxMHz: -1, CoreStepMHz: 14, MemMHz: []int{2600}}, false},
		{"inverted range", GridSpec{CoreMinMHz: 758, CoreMaxMHz: 324, CoreStepMHz: 14, MemMHz: []int{2600}}, false},
		{"zero step", GridSpec{CoreMinMHz: 324, CoreMaxMHz: 758, CoreStepMHz: 0, MemMHz: []int{2600}}, false},
		{"no mem clocks", GridSpec{CoreMinMHz: 324, CoreMaxMHz: 758, CoreStepMHz: 14}, false},
		{"negative mem", GridSpec{CoreMinMHz: 324, CoreMaxMHz: 758, CoreStepMHz: 14, MemMHz: []int{-2600}}, false},
		{"dup mem", GridSpec{CoreMinMHz: 324, CoreMaxMHz: 758, CoreStepMHz: 14, MemMHz: []int{2600, 2600}}, false},
		{"too large", GridSpec{CoreMinMHz: 1, CoreMaxMHz: 2000, CoreStepMHz: 1, MemMHz: []int{2600}}, false},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
		if !tc.ok {
			if _, err := K20cDevice().Grid(tc.spec); err == nil {
				t.Errorf("%s: Grid() = nil error, want validation error", tc.name)
			}
		}
	}
}

func TestGridRowsLayout(t *testing.T) {
	grid, err := K20cDevice().Grid(K20cDevice().DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	rows := GridRows(grid)
	if len(rows) != 4 {
		t.Fatalf("GridRows: %d rows, want 4 (3 mem clocks + ECC)", len(rows))
	}
	wantMem := []int{2600, 1300, 324, 2600}
	wantECC := []bool{false, false, false, true}
	total := 0
	for i, row := range rows {
		if len(row) == 0 {
			t.Fatalf("row %d empty", i)
		}
		for j, c := range row {
			if c.MemMHz != wantMem[i] || c.ECC != wantECC[i] {
				t.Fatalf("row %d entry %d: mem=%d ecc=%v, want mem=%d ecc=%v", i, j, c.MemMHz, c.ECC, wantMem[i], wantECC[i])
			}
			if j > 0 && row[j-1].CoreMHz >= c.CoreMHz {
				t.Fatalf("row %d not strictly ascending in core clock at %d: %d >= %d", i, j, row[j-1].CoreMHz, c.CoreMHz)
			}
		}
		total += len(row)
	}
	if total != len(grid) {
		t.Fatalf("GridRows lost configs: %d across rows, grid has %d", total, len(grid))
	}
}

// checkGridProperties asserts the quick-check invariants of a generated
// grid: every config validates and round-trips ConfigByName, names are
// unique, voltages are monotone non-decreasing in core clock, and the
// canonical four are present bit-identically.
func checkGridProperties(t *testing.T, grid []Clocks) {
	t.Helper()
	names := make(map[string]bool, len(grid))
	for _, c := range grid {
		if err := c.Validate(); err != nil {
			t.Fatalf("grid config %q invalid: %v", c.Name, err)
		}
		if names[c.Name] {
			t.Fatalf("duplicate grid config name %q", c.Name)
		}
		names[c.Name] = true
		rt, err := ConfigByName(c.Name)
		if err != nil {
			t.Fatalf("ConfigByName(%q): %v", c.Name, err)
		}
		if !reflect.DeepEqual(rt, c) {
			t.Fatalf("ConfigByName(%q) = %+v, want %+v", c.Name, rt, c)
		}
	}
	// Voltage monotone non-decreasing in core clock (grid points follow the
	// ladder interpolation; canonical configs sit exactly on ladder rungs).
	sorted := append([]Clocks(nil), grid...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[i].CoreMHz > sorted[j].CoreMHz && sorted[i].VoltageV < sorted[j].VoltageV {
				t.Fatalf("voltage not monotone: %q (%d MHz, %vV) vs %q (%d MHz, %vV)",
					sorted[i].Name, sorted[i].CoreMHz, sorted[i].VoltageV,
					sorted[j].Name, sorted[j].CoreMHz, sorted[j].VoltageV)
			}
		}
	}
	for _, want := range Configs {
		found := false
		for _, c := range grid {
			if c.Name == want.Name {
				if !reflect.DeepEqual(c, want) {
					t.Fatalf("canonical %q present but not bit-identical: %+v vs %+v", want.Name, c, want)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("canonical config %q missing from grid", want.Name)
		}
	}
}

// FuzzDVFSGrid throws arbitrary specs at the generator: every spec either
// fails Validate or expands into a grid satisfying all quick-check
// invariants (unique names, round-trip, monotone voltage, canonical four).
func FuzzDVFSGrid(f *testing.F) {
	d := K20cDevice().DefaultGrid()
	f.Add(d.CoreMinMHz, d.CoreMaxMHz, d.CoreStepMHz, 2600, 1300, 324)
	f.Add(705, 705, 1, 2600, 0, 0)
	f.Add(324, 758, 7, 2600, 324, 0)
	f.Add(600, 800, 100, 1300, 2600, 0)
	f.Add(1, 1024, 1, 2600, 0, 0)
	f.Fuzz(func(t *testing.T, coreMin, coreMax, step, m1, m2, m3 int) {
		var mem []int
		for _, m := range []int{m1, m2, m3} {
			if m != 0 {
				mem = append(mem, m)
			}
		}
		spec := GridSpec{CoreMinMHz: coreMin, CoreMaxMHz: coreMax, CoreStepMHz: step, MemMHz: mem}
		grid, err := K20cDevice().Grid(spec)
		if err != nil {
			return // invalid specs must fail, not panic
		}
		checkGridProperties(t, grid)
	})
}
