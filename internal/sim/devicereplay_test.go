package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/kepler"
)

// TestReplayRefusesCrossDevice: block statistics and issue cycles in a
// captured trace depend on the capture device's geometry and throughputs,
// so a trace must only ever replay on the device it was captured on — in
// either direction.
func TestReplayRefusesCrossDevice(t *testing.T) {
	gtx, err := kepler.DeviceByName("GTX1080")
	if err != nil {
		t.Fatal(err)
	}

	k20tr := capture(captureProgram)
	if k20tr.DeviceName() != "K20c" {
		t.Errorf("K20c trace tagged %q", k20tr.DeviceName())
	}

	if _, err := k20tr.Replay(gtx.DefaultConfig()); err == nil {
		t.Fatal("K20c trace replayed on the GTX1080 timing model")
	} else if !strings.Contains(err.Error(), "K20c") || !strings.Contains(err.Error(), "GTX1080") {
		t.Errorf("cross-device refusal %q does not name both devices", err)
	}
	// Same device, different clocks: still fine.
	if _, err := k20tr.Replay(kepler.F614); err != nil {
		t.Fatalf("same-device replay failed: %v", err)
	}

	// And the reverse direction.
	gtr := captureOn(gtx, captureProgram)
	if gtr.DeviceName() != "GTX1080" {
		t.Errorf("GTX1080 trace tagged %q", gtr.DeviceName())
	}
	if _, err := gtr.Replay(kepler.Default); err == nil {
		t.Fatal("GTX1080 trace replayed on the K20c timing model")
	}
	cfgs := gtx.Configurations()
	if _, err := gtr.Replay(cfgs[1]); err != nil {
		t.Fatalf("same-device replay failed: %v", err)
	}
}

// TestReplayIntoMatchesReplay: replaying into a device that last held a
// larger timeline or a smaller one yields the timeline a fresh Replay does,
// and once the device has held the trace a replay into it allocates
// nothing.
func TestReplayIntoMatchesReplay(t *testing.T) {
	small := func(g *GPU) {
		l := g.Launch("only", 16, 64, func(c *Ctx) { c.FP32Ops(8) })
		g.HostPause(0.003)
		g.Repeat(l, 3)
	}
	big, little := capture(captureProgram), capture(small)

	for _, c := range []struct {
		name string
		dst  func() *Device
		tr   *LaunchTrace
	}{
		{"larger into smaller", func() *Device { return mustReplay(t, little, kepler.F614) }, big},
		{"smaller into larger", func() *Device { return mustReplay(t, big, kepler.F614) }, little},
	} {
		for _, clk := range []kepler.Clocks{kepler.Default, kepler.F324, kepler.ECCDefault} {
			dst := c.dst()
			got, err := c.tr.ReplayInto(dst, clk)
			if err != nil {
				t.Fatal(err)
			}
			if got != dst {
				t.Errorf("%s@%s: ReplayInto returned a new device", c.name, clk.Name)
			}
			want := mustReplay(t, c.tr, clk)
			if !reflect.DeepEqual(got.Launches, want.Launches) || !reflect.DeepEqual(got.Gaps, want.Gaps) ||
				got.Now() != want.Now() || got.ActiveTime() != want.ActiveTime() || got.Clocks != want.Clocks {
				t.Errorf("%s@%s: ReplayInto timeline differs from a fresh Replay", c.name, clk.Name)
			}
		}
	}

	dst := mustReplay(t, big, kepler.Default)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := big.ReplayInto(dst, kepler.F614); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ReplayInto a device that held the trace allocates %.0f times, want 0", allocs)
	}
}

func mustReplay(t testing.TB, tr *LaunchTrace, clk kepler.Clocks) *Device {
	t.Helper()
	d, err := tr.Replay(clk)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
