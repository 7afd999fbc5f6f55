package kepler

import (
	"encoding/json"
	"strings"
	"testing"
)

// k20cJSON returns the embedded K20c description decoded into a generic
// map, so tests can corrupt individual fields and re-encode.
func k20cJSON(t testing.TB) map[string]any {
	t.Helper()
	data, err := deviceFS.ReadFile("devices/k20c.json")
	if err != nil {
		t.Fatalf("embedded k20c.json: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("decoding k20c.json: %v", err)
	}
	return m
}

func encode(t testing.TB, m map[string]any) []byte {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParseDeviceRoundTrip: every embedded device file must load, and the
// re-encoded K20c must parse to an equivalent device.
func TestParseDeviceRoundTrip(t *testing.T) {
	entries, err := deviceFS.ReadDir("devices")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 6 {
		t.Fatalf("only %d embedded device files", len(entries))
	}
	for _, e := range entries {
		data, err := deviceFS.ReadFile("devices/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		d, err := ParseDevice(data)
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if d.Name == "" || d.Class == "" {
			t.Errorf("%s: empty name/class", e.Name())
		}
	}
	d, err := ParseDevice(encode(t, k20cJSON(t)))
	if err != nil {
		t.Fatalf("re-encoded k20c: %v", err)
	}
	if d.Name != "K20c" || d.SMs != K20cDevice().SMs {
		t.Errorf("re-encoded k20c differs: %s, %d SMs", d.Name, d.SMs)
	}
}

// TestParseDeviceValidation corrupts the K20c description one field at a
// time and checks each defect class is rejected with its rich error.
func TestParseDeviceValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(m map[string]any)
		wantErr string
	}{
		{"zero geometry", func(m map[string]any) { m["sms"] = 0 },
			"geometry sms must be positive"},
		{"negative geometry", func(m map[string]any) { m["dramBytes"] = -1 },
			"geometry dramBytes must be positive"},
		{"threads not warp multiple", func(m map[string]any) { m["maxThreadsPerSM"] = 2047 },
			"not a positive multiple of the warp size"},
		{"block exceeds SM", func(m map[string]any) { m["maxThreadsPerBlock"] = 4096 },
			"exceeds maxThreadsPerSM"},
		{"zero rate", func(m map[string]any) {
			m["rates"].(map[string]any)["fp64"] = 0
		}, "rate fp64 must be positive"},
		{"ecc capacity loss", func(m map[string]any) {
			m["ecc"].(map[string]any)["capacityLoss"] = 1.5
		}, "capacityLoss"},
		{"implausible voltage", func(m map[string]any) {
			m["power"].(map[string]any)["refVoltageV"] = 9.0
		}, "refVoltageV"},
		{"zero sensor switch", func(m map[string]any) {
			m["sensor"].(map[string]any)["switchW"] = 0
		}, "switchW must be positive"},
		{"no settings", func(m map[string]any) { m["settings"] = []any{} },
			"no application-clock settings"},
		{"non-monotone voltage ladder", func(m map[string]any) {
			// Push the slowest rung's voltage above the fastest rung's
			// (still individually plausible, so only the ladder check trips).
			rungs := m["settings"].([]any)
			rungs[len(rungs)-1].(map[string]any)["voltageV"] = 1.1
		}, "non-monotone voltage ladder"},
		{"duplicate ladder rung", func(m map[string]any) {
			rungs := m["settings"].([]any)
			dup := map[string]any{}
			for k, v := range rungs[0].(map[string]any) {
				dup[k] = v
			}
			dup["name"] = "dup"
			m["settings"] = append(rungs, any(dup))
		}, "duplicate ladder rung"},
		{"missing canonical config", func(m map[string]any) {
			m["canonical"] = m["canonical"].([]any)[:3]
		}, "canonical configurations"},
		{"canonical out of order", func(m map[string]any) {
			c := m["canonical"].([]any)
			c[0], c[1] = c[1], c[0]
		}, "missing canonical config"},
		{"canonical ecc flag", func(m map[string]any) {
			m["canonical"].([]any)[3].(map[string]any)["ecc"] = false
		}, "must have ecc=true"},
		{"canonical default disagrees", func(m map[string]any) { m["defaultCoreMHz"] = 999 },
			"disagrees with defaultCoreMHz"},
		{"no name", func(m map[string]any) { m["name"] = "" },
			"no name"},
		{"no class", func(m map[string]any) { m["class"] = "" },
			"missing class"},
		{"unknown field", func(m map[string]any) { m["warpSize"] = 32 },
			"unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := k20cJSON(t)
			tc.mutate(m)
			_, err := ParseDevice(encode(t, m))
			if err == nil {
				t.Fatalf("corrupt device accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseDeviceRejectsTrailing: concatenated objects are not a device.
func TestParseDeviceRejectsTrailing(t *testing.T) {
	data, err := deviceFS.ReadFile("devices/k20c.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDevice(append(append([]byte{}, data...), []byte("{}")...)); err == nil {
		t.Error("trailing object accepted")
	}
}

// TestDeviceByName covers the registry: case-insensitive lookup, the empty
// name defaulting to the K20c, and unknown names failing with the roster.
func TestDeviceByName(t *testing.T) {
	for _, name := range []string{"", "K20c", "k20c", "K20C"} {
		d, err := DeviceByName(name)
		if err != nil {
			t.Fatalf("DeviceByName(%q): %v", name, err)
		}
		if d != K20cDevice() {
			t.Errorf("DeviceByName(%q) is not the canonical K20c instance", name)
		}
	}
	d, err := DeviceByName("gtx1080")
	if err != nil || d.Name != "GTX1080" {
		t.Fatalf("DeviceByName(gtx1080) = %v, %v", d, err)
	}
	if _, err := DeviceByName("GTX9000"); err == nil {
		t.Fatal("unknown device accepted")
	} else if !strings.Contains(err.Error(), "K20c") {
		t.Errorf("unknown-device error %q does not list the known devices", err)
	}
}

// TestProfiles: the three representative classes exist and are distinct.
func TestProfiles(t *testing.T) {
	profiles := Profiles()
	if len(profiles) != 3 {
		t.Fatalf("Profiles() returned %d devices", len(profiles))
	}
	classes := map[string]bool{}
	for _, d := range profiles {
		classes[d.Class] = true
	}
	if len(classes) != 3 {
		t.Errorf("profiles do not span three classes: %v", classes)
	}
	if profiles[0] != K20cDevice() {
		t.Errorf("first profile is %s, want the K20c", profiles[0].Name)
	}
}

// TestK20cMatchesPackageVars: the K20c device must reproduce the historical
// package-level configurations bit for bit, including comparability — the
// golden corpus depends on it.
func TestK20cMatchesPackageVars(t *testing.T) {
	d := K20cDevice()
	cfgs := d.Configurations()
	for i, want := range []Clocks{Default, F614, F324, ECCDefault} {
		if cfgs[i] != want {
			t.Errorf("canonical[%d] = %+v, want %+v", i, cfgs[i], want)
		}
	}
	if got := d.DefaultConfig(); got != Default {
		t.Errorf("DefaultConfig() = %+v", got)
	}
}

// TestConfigLookups: role and name lookups on a non-K20c profile.
func TestConfigLookups(t *testing.T) {
	d, err := DeviceByName("JetsonTX2")
	if err != nil {
		t.Fatal(err)
	}
	def, err := d.Config("default")
	if err != nil {
		t.Fatal(err)
	}
	if def != d.DefaultConfig() {
		t.Errorf("Config(default) = %+v", def)
	}
	if def.Device() != d {
		t.Errorf("default config resolves to device %s", def.Device().Name)
	}
	if _, err := d.Config("nope"); err == nil {
		t.Error("unknown role accepted")
	}
	if _, err := d.ConfigByName("nope"); err == nil {
		t.Error("unknown config name accepted")
	}
}

// FuzzDeviceLoader mirrors FuzzDVFSGrid for the device loader: arbitrary
// bytes must either fail ParseDevice or produce a device whose invariants
// hold; the loader must never panic.
func FuzzDeviceLoader(f *testing.F) {
	entries, err := deviceFS.ReadDir("devices")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		data, err := deviceFS.ReadFile("devices/" + e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("{}"))
	f.Add([]byte(`{"name":"X","class":"c","sms":-1}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDevice(data)
		if err != nil {
			return // invalid descriptions must fail, not panic
		}
		// A parsed device must satisfy the invariants validate promises.
		cfgs := d.Configurations()
		if len(cfgs) != numCanonicalConfigs {
			t.Fatalf("%d canonical configs", len(cfgs))
		}
		for i, c := range cfgs {
			if c.Name != canonicalRoles[i] {
				t.Errorf("canonical[%d] role %q", i, c.Name)
			}
		}
		if d.DefaultConfig().CoreMHz != d.DefaultCoreMHz {
			t.Error("default config disagrees with defaultCoreMHz")
		}
		// The voltage curve must be non-decreasing over the ladder span.
		lo, hi := d.Settings[0].CoreMHz, d.Settings[0].CoreMHz
		for _, s := range d.Settings {
			if s.CoreMHz < lo {
				lo = s.CoreMHz
			}
			if s.CoreMHz > hi {
				hi = s.CoreMHz
			}
		}
		prev := d.VoltageFor(lo)
		for mhz := lo; mhz <= hi; mhz += (hi-lo)/16 + 1 {
			v := d.VoltageFor(mhz)
			if v < prev {
				t.Errorf("VoltageFor(%d) = %g below previous %g", mhz, v, prev)
			}
			prev = v
		}
		if d.MaxWarpsPerSM() <= 0 {
			t.Error("MaxWarpsPerSM not positive")
		}
	})
}

// TestParseDeviceEnergyValidation corrupts the EnergyTable one entry at a
// time (mirroring TestParseDeviceValidation): every per-event energy must be
// strictly positive, the divergence factor non-negative, and unknown table
// fields rejected.
func TestParseDeviceEnergyValidation(t *testing.T) {
	entries := []string{"intJ", "fp32J", "fp64J", "sfuJ", "sharedJ", "ldstJ", "syncJ", "txnJ", "atomicJ"}
	setEnergy := func(m map[string]any, key string, v any) {
		m["energy"].(map[string]any)[key] = v
	}
	for _, key := range entries {
		for _, bad := range []any{0, -1e-9} {
			m := k20cJSON(t)
			setEnergy(m, key, bad)
			_, err := ParseDevice(encode(t, m))
			if err == nil || !strings.Contains(err.Error(), "energy "+key+" must be positive") {
				t.Errorf("energy %s = %v: err = %v, want positivity rejection", key, bad, err)
			}
		}
		// A missing entry decodes as zero and is equally rejected: a device
		// file cannot silently opt out of pricing an event class.
		m := k20cJSON(t)
		delete(m["energy"].(map[string]any), key)
		if _, err := ParseDevice(encode(t, m)); err == nil ||
			!strings.Contains(err.Error(), "energy "+key+" must be positive") {
			t.Errorf("missing energy %s: err = %v, want positivity rejection", key, err)
		}
	}

	m := k20cJSON(t)
	setEnergy(m, "divergenceFactor", -0.1)
	if _, err := ParseDevice(encode(t, m)); err == nil ||
		!strings.Contains(err.Error(), "divergenceFactor") {
		t.Errorf("negative divergenceFactor: err = %v", err)
	}
	// Zero divergence factor is legal (a device may price divergence as free).
	m = k20cJSON(t)
	setEnergy(m, "divergenceFactor", 0)
	if _, err := ParseDevice(encode(t, m)); err != nil {
		t.Errorf("zero divergenceFactor rejected: %v", err)
	}

	// Unknown table fields are typos, not extensions.
	m = k20cJSON(t)
	setEnergy(m, "fp16J", 1e-9)
	if _, err := ParseDevice(encode(t, m)); err == nil {
		t.Error("unknown energy field accepted")
	}

	// A device file with no energy table at all is rejected too.
	m = k20cJSON(t)
	delete(m, "energy")
	if _, err := ParseDevice(encode(t, m)); err == nil {
		t.Error("device without an energy table accepted")
	}
}

// TestEnergyTablesShipped: every embedded profile carries a complete,
// positive energy table, and (for now) the tables are identical across
// profiles — per-device calibration is a data change away, which is the
// point of the table.
func TestEnergyTablesShipped(t *testing.T) {
	devs := Devices()
	if len(devs) < 6 {
		t.Fatalf("only %d devices", len(devs))
	}
	ref := K20cDevice().Energy
	for _, d := range devs {
		if d.Energy != ref {
			t.Logf("%s ships its own energy table (fine, just noting)", d.Name)
		}
		if !(d.Energy.TxnJ > d.Energy.FP64J) {
			t.Errorf("%s: txnJ %g not above fp64J %g — a DRAM transaction must dominate any ALU op", d.Name, d.Energy.TxnJ, d.Energy.FP64J)
		}
	}
}
