package sim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/kepler"
)

// TestTraceCodecRoundTrip is the wire-format soundness contract: a trace
// encoded on one worker and decoded on another must replay bit-identically
// to the original at every configuration, report the same footprint, and
// re-encode to the same bytes. Ordered launches travel like any other.
func TestTraceCodecRoundTrip(t *testing.T) {
	program := func(d *Device) {
		captureProgram(d)
		orderedProgram(d)
	}
	capDev := NewDevice(kepler.Default)
	capDev.BeginCapture()
	program(capDev)
	tr := capDev.EndCapture()
	if tr.ClockSensitive() {
		t.Fatalf("capture program marked sensitive: %s", tr.SensitiveReason())
	}

	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.DeviceName() != tr.DeviceName() {
		t.Errorf("device %q, want %q", got.DeviceName(), tr.DeviceName())
	}
	if got.Bytes() != tr.Bytes() {
		t.Errorf("footprint %d, want %d", got.Bytes(), tr.Bytes())
	}
	if got.Launches() != tr.Launches() {
		t.Errorf("launches %d, want %d", got.Launches(), tr.Launches())
	}

	// Replay parity across every K20c configuration, against both the
	// original trace and a fresh simulation.
	for _, clk := range kepler.Configs {
		orig, err := tr.Replay(clk)
		if err != nil {
			t.Fatalf("%s: original replay: %v", clk.Name, err)
		}
		decoded, err := got.Replay(clk)
		if err != nil {
			t.Fatalf("%s: decoded replay: %v", clk.Name, err)
		}
		if diff := diffDevices(orig, decoded); diff != "" {
			t.Errorf("%s: decoded replay diverges: %s", clk.Name, diff)
		}
		fresh := NewDevice(clk)
		program(fresh)
		if diff := diffDevices(fresh, decoded); diff != "" {
			t.Errorf("%s: decoded replay vs fresh simulation: %s", clk.Name, diff)
		}
	}

	// The encoding itself is deterministic (stable JSON field order,
	// bit-exact float round trip), so re-encoding reproduces the document.
	data2, err := EncodeTrace(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("encode→decode→encode not byte-stable")
	}
}

// TestTraceCodecSensitiveTombstone: a clock-sensitive trace travels as its
// verdict alone, and the decoder refuses contradictory documents.
func TestTraceCodecSensitiveTombstone(t *testing.T) {
	dev := NewDevice(kepler.Default)
	dev.BeginCapture()
	dev.Launch("k", 8, 128, func(c *Ctx) { c.IntOps(8) })
	_ = dev.Now()
	tr := dev.EndCapture()
	if !tr.ClockSensitive() {
		t.Fatal("mid-run Now() read did not mark the trace sensitive")
	}

	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ClockSensitive() {
		t.Error("sensitivity verdict lost on the wire")
	}
	if got.SensitiveReason() != tr.SensitiveReason() {
		t.Errorf("reason %q, want %q", got.SensitiveReason(), tr.SensitiveReason())
	}
	if got.Launches() != 0 {
		t.Errorf("tombstone decoded with %d launches", got.Launches())
	}

	// A document claiming both sensitivity and a timeline is rejected.
	bad := strings.Replace(string(data), `"sensitive":true`,
		`"sensitive":true,"events":[{"kind":"pause","pause":1}]`, 1)
	if _, err := DecodeTrace([]byte(bad)); err == nil {
		t.Error("decoder accepted a sensitive trace with events")
	}
}

// TestTraceCodecCrossDeviceRefusal: the device tag travels with the trace,
// so a decoded trace refuses to replay on another device's timing model.
func TestTraceCodecCrossDeviceRefusal(t *testing.T) {
	gtx, err := kepler.DeviceByName("GTX1080")
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(kepler.Default)
	dev.BeginCapture()
	captureProgram(dev)
	data, err := EncodeTrace(dev.EndCapture())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Replay(gtx.DefaultConfig()); err == nil {
		t.Fatal("decoded K20c trace replayed on the GTX1080 timing model")
	} else if !strings.Contains(err.Error(), "K20c") || !strings.Contains(err.Error(), "GTX1080") {
		t.Errorf("refusal %q does not name both devices", err)
	}
}

// scaledLaunchDoc is a one-launch K20c trace document with the given
// launch scale.
func scaledLaunchDoc(scale string) string {
	return `{"version":2,"device":"K20c","events":[{"kind":"launch","launch":{"Spec":{"Name":"k","Grid":1,"Block":128},"Occ":{"BlocksPerSM":1},"BlockCycles":[1],"Scale":` + scale + `}}]}`
}

// TestTraceCodecRejectsMalformed: the decoder is strict — structural
// violations fail cleanly instead of producing a corrupt replay.
func TestTraceCodecRejectsMalformed(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"not JSON", `{`},
		{"wrong version", `{"version":99,"device":"K20c"}`},
		{"no device", `{"version":2}`},
		{"unknown field", `{"version":2,"device":"K20c","frobnicate":1}`},
		{"unknown event kind", `{"version":2,"device":"K20c","events":[{"kind":"warp"}]}`},
		{"launch without body", `{"version":2,"device":"K20c","events":[{"kind":"launch"}]}`},
		{"zero grid", `{"version":2,"device":"K20c","events":[{"kind":"launch","launch":{"Spec":{"Name":"k","Grid":0,"Block":128},"BlockCycles":[],"Scale":1}}]}`},
		{"block cycles mismatch", `{"version":2,"device":"K20c","events":[{"kind":"launch","launch":{"Spec":{"Name":"k","Grid":2,"Block":128},"BlockCycles":[1],"Scale":1}}]}`},
		{"previous version", `{"version":1,"device":"K20c","sensitive":true,"reason":"ordered launch \"k\""}`},
		{"repeat of future launch", `{"version":2,"device":"K20c","events":[{"kind":"repeat","index":0,"n":3}]}`},
		{"negative repeat", `{"version":2,"device":"K20c","events":[{"kind":"pause","pause":1},{"kind":"repeat","index":0,"n":-1}]}`},
		{"no resident blocks", `{"version":2,"device":"K20c","events":[{"kind":"launch","launch":{"Spec":{"Name":"k","Grid":1,"Block":128},"BlockCycles":[1],"Scale":1}}]}`},
		{"unknown device", `{"version":2,"device":"RivaTNT","events":[{"kind":"pause","pause":1}]}`},
		{"unknown device tombstone", `{"version":2,"device":"RivaTNT","sensitive":true,"reason":"mid-run Now() read"}`},
		{"zero scale", scaledLaunchDoc("0")},
		{"fractional scale", scaledLaunchDoc("0.5")},
		{"negative scale", scaledLaunchDoc("-2")},
	}
	for _, tc := range cases {
		if _, err := DecodeTrace([]byte(tc.doc)); err == nil {
			t.Errorf("%s: decoder accepted %s", tc.name, tc.doc)
		}
	}

	// The scale rows differ from a well-formed launch only in the scale.
	if _, err := DecodeTrace([]byte(scaledLaunchDoc("1"))); err != nil {
		t.Errorf("decoder rejected a well-formed launch with scale 1: %v", err)
	}

	// An unknown device is reported with the devices this build knows.
	_, err := DecodeTrace([]byte(`{"version":2,"device":"RivaTNT"}`))
	if err == nil || !strings.Contains(err.Error(), "RivaTNT") || !strings.Contains(err.Error(), "K20c") {
		t.Errorf("unknown-device refusal %v does not name the device and the known list", err)
	}
}
