package kepler

import (
	"testing"
	"testing/quick"
)

func TestConfigsValid(t *testing.T) {
	for _, c := range Configs {
		if err := c.Validate(); err != nil {
			t.Errorf("config %s invalid: %v", c.Name, err)
		}
	}
}

func TestConfigByName(t *testing.T) {
	for _, want := range Configs {
		got, err := ConfigByName(want.Name)
		if err != nil {
			t.Fatalf("ConfigByName(%q): %v", want.Name, err)
		}
		if got != want {
			t.Errorf("ConfigByName(%q) = %+v, want %+v", want.Name, got, want)
		}
	}
	if _, err := ConfigByName("warp9"); err == nil {
		t.Error("ConfigByName(warp9) should fail")
	}
}

func TestClockRelationsMatchPaper(t *testing.T) {
	// 614 lowers only the core clock (~15%).
	if F614.MemMHz != Default.MemMHz {
		t.Error("614 must keep the default memory clock")
	}
	ratio := float64(Default.CoreMHz) / float64(F614.CoreMHz)
	if ratio < 1.10 || ratio > 1.20 {
		t.Errorf("default/614 core ratio = %.3f, want ~1.15", ratio)
	}
	// 324 lowers the core by ~1.9x (vs 614) and the memory by 8x.
	if r := float64(F614.CoreMHz) / float64(F324.CoreMHz); r < 1.85 || r > 1.95 {
		t.Errorf("614/324 core ratio = %.3f, want ~1.9", r)
	}
	if r := float64(F614.MemMHz) / float64(F324.MemMHz); r < 7.9 || r > 8.1 {
		t.Errorf("614/324 mem ratio = %.3f, want ~8", r)
	}
	// DVFS: lower frequency, lower voltage.
	if !(Default.VoltageV > F614.VoltageV && F614.VoltageV > F324.VoltageV) {
		t.Error("voltage must fall with frequency")
	}
}

func TestECCEffects(t *testing.T) {
	if ECCDefault.MemBandwidth() >= Default.MemBandwidth() {
		t.Error("ECC must reduce usable bandwidth")
	}
	if ECCDefault.MemLatency() <= Default.MemLatency() {
		t.Error("ECC must increase memory latency")
	}
	lost := 1 - float64(ECCDefault.UsableDRAM())/float64(Default.UsableDRAM())
	if lost < 0.12 || lost > 0.13 {
		t.Errorf("ECC capacity loss = %.4f, want 0.125", lost)
	}
}

func TestPeakBandwidth(t *testing.T) {
	// K20c: ~208 GB/s.
	bw := Default.MemBandwidth()
	if bw < 200e9 || bw < 0 || bw > 215e9 {
		t.Errorf("default bandwidth = %.1f GB/s, want ~208", bw/1e9)
	}
}

func TestComputeOccupancy(t *testing.T) {
	cases := []struct {
		threads, shared int
		wantBlocks      int
		wantWarps       int
	}{
		{256, 0, 8, 64},         // thread-limited: 2048/256
		{1024, 0, 2, 64},        // 2048/1024
		{64, 0, 16, 32},         // block-limited: max 16 blocks
		{256, 48 * 1024, 1, 8},  // shared-limited: one block
		{256, 12 * 1024, 4, 32}, // shared-limited: 4 blocks
		{32, 0, 16, 16},         // tiny blocks
	}
	for _, c := range cases {
		occ := K20cDevice().ComputeOccupancy(c.threads, c.shared)
		if occ.BlocksPerSM != c.wantBlocks || occ.WarpsPerSM != c.wantWarps {
			t.Errorf("ComputeOccupancy(%d, %d) = %+v, want blocks %d warps %d",
				c.threads, c.shared, occ, c.wantBlocks, c.wantWarps)
		}
	}
}

func TestOccupancyProperties(t *testing.T) {
	f := func(threads, shared uint16) bool {
		occ := K20cDevice().ComputeOccupancy(int(threads)%1025, int(shared)%(64*1024))
		return occ.BlocksPerSM >= 1 &&
			occ.WarpsPerSM >= 1 &&
			occ.WarpsPerSM <= K20cDevice().MaxWarpsPerSM() &&
			occ.Fraction > 0 && occ.Fraction <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModelsConfigurations(t *testing.T) {
	for _, m := range Models {
		cfgs := m.Configurations()
		if len(cfgs) != 4 {
			t.Fatalf("%s: %d configurations, want 4", m.Name, len(cfgs))
		}
		for _, c := range cfgs {
			if err := c.Validate(); err != nil {
				t.Errorf("%s/%s: %v", m.Name, c.Name, err)
			}
			if c.Device().Name != m.Name {
				t.Errorf("%s/%s: device %s", m.Name, c.Name, c.Device().Name)
			}
		}
		if cfgs[1].CoreMHz >= cfgs[0].CoreMHz {
			t.Errorf("%s: lowered clock not lower", m.Name)
		}
		if !cfgs[3].ECC || cfgs[0].ECC {
			t.Errorf("%s: ECC flags wrong", m.Name)
		}
	}
}

func TestDefaultClocksAreK20c(t *testing.T) {
	if Default.Device().Name != "K20c" {
		t.Errorf("zero-device default = %s", Default.Device().Name)
	}
	if Default.SMCount() != 13 {
		t.Errorf("K20c SMs = %d", Default.SMCount())
	}
	// K40 has more bandwidth than the K20c.
	k40 := mustDevice("K40").Configurations()[0]
	if k40.MemBandwidth() <= Default.MemBandwidth() {
		t.Error("K40 bandwidth should exceed K20c")
	}
}

func TestClockStringAndHz(t *testing.T) {
	s := Default.String()
	if s == "" || ECCDefault.String() == s {
		t.Error("String() not distinguishing configurations")
	}
	if Default.CoreHz() != 705e6 || Default.MemHz() != 2600e6 {
		t.Error("Hz conversions wrong")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Clocks{
		{Name: "", CoreMHz: 705, MemMHz: 2600, VoltageV: 1},
		{Name: "x", CoreMHz: 0, MemMHz: 2600, VoltageV: 1},
		{Name: "x", CoreMHz: 705, MemMHz: -1, VoltageV: 1},
		{Name: "x", CoreMHz: 705, MemMHz: 2600, VoltageV: 3},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestAllSettingsLadder(t *testing.T) {
	settings := K20cDevice().Settings
	if len(settings) != 6 {
		t.Fatalf("K20c has six settings, got %d", len(settings))
	}
	for i, c := range settings {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if i > 0 {
			prev := settings[i-1]
			if c.CoreMHz >= prev.CoreMHz {
				t.Errorf("ladder not descending at %s", c.Name)
			}
			if c.VoltageV > prev.VoltageV {
				t.Errorf("voltage not descending at %s", c.Name)
			}
		}
	}
	// The paper's three evaluated settings are on the ladder.
	names := map[string]bool{}
	for _, c := range settings {
		names[c.Name] = true
	}
	for _, want := range []string{"705", "614", "324"} {
		if !names[want] {
			t.Errorf("setting %s missing from ladder", want)
		}
	}
}
