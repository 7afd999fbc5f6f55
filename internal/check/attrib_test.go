package check

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/suites"
)

// TestCalibrationInvariants runs the microbenchmark calibration checkers on
// a fresh runner at the K20c defaults: every EnergyTable-pinning invariant
// must hold, and the recovered entries must sit within the entry tolerance.
func TestCalibrationInvariants(t *testing.T) {
	r := core.NewRunner()
	var st Stats
	vs, n, err := checkCalibration(context.Background(), r, kepler.K20cDevice(), &st)
	if err != nil {
		t.Fatalf("calibration sweep failed: %v", err)
	}
	if n < 20 {
		t.Errorf("only %d calibration checks ran; the three microbenchmarks should contribute more", n)
	}
	for _, v := range vs {
		t.Errorf("calibration violation: %s", v)
	}
	if !(st.MaxCalibErr <= calibEntryTol) {
		t.Errorf("worst recovered-entry error %.3e exceeds %g", st.MaxCalibErr, calibEntryTol)
	}
}

// TestCalibrationOnEveryDevice asserts the calibration invariants are
// profile-independent: the microbenchmarks pin each shipped device's own
// EnergyTable, not just the K20c's.
func TestCalibrationOnEveryDevice(t *testing.T) {
	for _, dev := range kepler.Devices() {
		r := core.NewRunner()
		var st Stats
		vs, _, err := checkCalibration(context.Background(), r, dev, &st)
		if err != nil {
			t.Fatalf("%s: calibration sweep failed: %v", dev.Name, err)
		}
		for _, v := range vs {
			t.Errorf("%s: calibration violation: %s", dev.Name, v)
		}
	}
}

// TestAttributionTieOutDirect exercises the attribution checker on one
// program across all four configurations without the full sweep machinery.
func TestAttributionTieOutDirect(t *testing.T) {
	p, err := suites.ByName("NB")
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRunner()
	vs, n, err := checkAttribution(context.Background(), r, p, kepler.Configs, nil)
	if err != nil {
		t.Fatalf("attribution check failed: %v", err)
	}
	if n == 0 {
		t.Fatal("attribution checker evaluated nothing")
	}
	for _, v := range vs {
		t.Errorf("attribution violation: %s", v)
	}
}

// TestAttributionCrossDevice asserts the device-profile separation of the
// attribution pass: the same program on different GPU profiles produces
// identical launch structure and instruction counts — a profile changes the
// pricing (EnergyTable, voltage, EnergyScale) and the timing, never what the
// program executed — while the priced energies genuinely differ.
func TestAttributionCrossDevice(t *testing.T) {
	ctx := context.Background()
	p, err := suites.ByName("MB-STRIDE")
	if err != nil {
		t.Fatal(err)
	}
	input := p.DefaultInput()

	type run struct {
		dev *kepler.Device
		a   *power.Attribution
	}
	var runs []run
	r := core.NewRunner()
	for _, name := range []string{"K20c", "GTX1080", "JetsonTX2"} {
		dev, err := kepler.DeviceByName(name)
		if err != nil {
			t.Fatalf("device %s: %v", name, err)
		}
		sd, err := r.SimulatedDevice(ctx, p, input, dev.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs = append(runs, run{dev, power.Attribute(sd)})

		// Re-derive the counts through the simulated device for the
		// structural comparison below.
		if len(runs) > 1 {
			base, err := r.SimulatedDevice(ctx, p, input, runs[0].dev.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if len(sd.Launches) != len(base.Launches) {
				t.Fatalf("%s recorded %d launches, K20c %d", name, len(sd.Launches), len(base.Launches))
			}
			for i, l := range sd.Launches {
				bl := base.Launches[i]
				if l.Name != bl.Name || l.Repeat != bl.Repeat {
					t.Errorf("%s launch %d identity differs: %s x%d vs %s x%d",
						name, i, l.Name, l.Repeat, bl.Name, bl.Repeat)
				}
				if l.Stats != bl.Stats {
					t.Errorf("%s launch %d instruction counts differ from K20c: a device profile must never change what executed", name, i)
				}
			}
		}
	}

	base := runs[0].a
	for _, o := range runs[1:] {
		if o.a.Device == base.Device {
			t.Fatalf("attribution did not record the device profile (%s twice)", o.a.Device)
		}
		if o.a.DynamicJ == base.DynamicJ && o.a.TotalJ == base.TotalJ {
			t.Errorf("%s priced identically to K20c; profiles differ in voltage and scale, energies must move", o.a.Device)
		}
	}
}

// TestAttributionCheckCounts asserts the checker evaluates every launch of
// a clean run without a violation: an accounting check and a non-negative-
// class check per launch, plus the run-total check per configuration.
func TestAttributionCheckCounts(t *testing.T) {
	p, err := suites.ByName("MB-FMA")
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRunner()
	ctx := context.Background()
	sd, err := r.SimulatedDevice(ctx, p, p.DefaultInput(), kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	vs, n, err := checkAttribution(ctx, r, p, []kepler.Clocks{kepler.Default}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
	// Per launch: accounting + non-negative classes. Per config: run total
	// (no stored results passed, so no TrueEnergy check).
	want := 2*len(sd.Launches) + 1
	if n != want {
		t.Errorf("checker evaluated %d checks, want %d (2x%d launches + 1 run total)", n, want, len(sd.Launches))
	}
}
