package sim

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/kepler"
)

// TestTraceCodecRoundTrip is the wire-format soundness contract: a trace
// encoded on one worker and decoded on another must replay bit-identically
// to the original at every configuration, report the same footprint, and
// re-encode to the same bytes. Ordered launches travel like any other.
func TestTraceCodecRoundTrip(t *testing.T) {
	tr := capture(func(g *GPU) {
		captureProgram(g)
		orderedProgram(g)
	})

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

	// Replay parity with the original trace across every K20c
	// configuration.
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
	}

	// The encoding itself is deterministic (fixed field order, floats as
	// raw bits), so re-encoding reproduces the document.
	data2, err := EncodeTrace(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("encode→decode→encode not byte-stable")
	}
}

// TestTraceCodecSensitiveTombstone: a tombstone travels as its verdict
// alone, refuses to replay, and the decoder refuses contradictory
// documents.
func TestTraceCodecSensitiveTombstone(t *testing.T) {
	tr := &LaunchTrace{device: "K20c", sensitive: true, reason: "mid-run Now() read"}

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
	if _, err := got.Replay(kepler.Default); err == nil || !strings.Contains(err.Error(), "clock-sensitive") {
		t.Errorf("decoded tombstone replay: %v, want a clock-sensitive refusal", err)
	}

	// A document claiming both sensitivity and a timeline is rejected.
	bad := encodeRaw(&LaunchTrace{device: tr.device, sensitive: true, reason: tr.reason,
		events: []captureEvent{pauseEvent(1)}})
	if _, err := DecodeTrace(bad); err == nil {
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
	data, err := EncodeTrace(capture(captureProgram))
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

// encodeRaw encodes a hand-built trace. EncodeTrace writes whatever it is
// given, so a malformed trace reaches the decoder exactly as built.
func encodeRaw(tr *LaunchTrace) []byte {
	data, err := EncodeTrace(tr)
	if err != nil {
		panic(err)
	}
	return data
}

// k20Doc encodes a K20c trace of the given events.
func k20Doc(events ...captureEvent) []byte {
	return encodeRaw(&LaunchTrace{device: "K20c", events: events})
}

// launchEvent is a well-formed one-block launch, changed by edit.
func launchEvent(edit func(*CapturedLaunch)) captureEvent {
	cl := &CapturedLaunch{
		Spec:        LaunchSpec{Name: "k", Grid: 1, Block: 128},
		Occ:         kepler.Occupancy{BlocksPerSM: 1},
		BlockCycles: []float64{1},
		Scale:       1,
	}
	if edit != nil {
		edit(cl)
	}
	return captureEvent{kind: evLaunch, launch: cl}
}

func pauseEvent(dt float64) captureEvent { return captureEvent{kind: evPause, pause: dt} }

func repeatEvent(index, n int) captureEvent {
	return captureEvent{kind: evRepeat, repeatIndex: index, repeatN: n}
}

func withScale(scale float64) captureEvent {
	return launchEvent(func(cl *CapturedLaunch) { cl.Scale = scale })
}

func withCycles(cycles ...float64) captureEvent {
	return launchEvent(func(cl *CapturedLaunch) { cl.BlockCycles = cycles })
}

// patched returns a copy of doc with the bytes from off replaced by b.
func patched(doc []byte, off int, b ...byte) []byte {
	out := append([]byte(nil), doc...)
	copy(out[off:], b)
	return out
}

// TestTraceCodecRejectsMalformed: the decoder is as strict as capture —
// structural violations and values capture never produces fail cleanly
// instead of producing a corrupt replay.
func TestTraceCodecRejectsMalformed(t *testing.T) {
	// An event-free K20c header ends in its sensitive flag, the empty
	// reason's length and the event count; in a document with fewer than
	// 128 events the first event's kind byte follows at len(hdr).
	hdr := k20Doc()
	flagAt, countAt := len(hdr)-3, len(hdr)-1
	oneLaunch := k20Doc(launchEvent(nil))
	onePause := k20Doc(pauseEvent(1))
	// A one-launch document ends in its run count (1), the run's cycles
	// float and the run's block count (1).
	runsAt, runLenAt := len(oneLaunch)-10, len(oneLaunch)-1

	cases := []struct {
		name string
		doc  []byte
	}{
		{"not a trace", []byte(`{`)},
		{"wrong version", patched(hdr, len(traceMagic), 99)},
		{"no device", encodeRaw(&LaunchTrace{})},
		{"unknown header flag", patched(hdr, flagAt, 2)},
		{"unknown event kind", patched(onePause, len(hdr), 0x7f)},
		{"launch without body", append(patched(hdr, countAt, 1), wireLaunch)},
		{"zero grid", k20Doc(launchEvent(func(cl *CapturedLaunch) { cl.Spec.Grid, cl.BlockCycles = 0, nil }))},
		{"block cycles mismatch", k20Doc(launchEvent(func(cl *CapturedLaunch) { cl.Spec.Grid = 2 }))},
		{"previous version", []byte(`{"version":1,"device":"K20c","sensitive":true,"reason":"ordered launch \"k\""}`)},
		{"JSON version 2", []byte(`{"version":2,"device":"K20c","events":[{"kind":"pause","pause":1}]}`)},
		{"repeat of future launch", k20Doc(repeatEvent(0, 3))},
		{"negative repeat", k20Doc(launchEvent(nil), repeatEvent(0, -1))},
		{"no resident blocks", k20Doc(launchEvent(func(cl *CapturedLaunch) { cl.Occ.BlocksPerSM = 0 }))},
		{"unknown device", encodeRaw(&LaunchTrace{device: "RivaTNT", events: []captureEvent{pauseEvent(1)}})},
		{"unknown device tombstone", encodeRaw(&LaunchTrace{device: "RivaTNT", sensitive: true, reason: "mid-run Now() read"})},
		{"zero scale", k20Doc(withScale(0))},
		{"fractional scale", k20Doc(withScale(0.5))},
		{"negative scale", k20Doc(withScale(-2))},
		{"infinite scale", k20Doc(withScale(math.Inf(1)))},
		{"negative block cycles", k20Doc(withCycles(-1))},
		{"infinite block cycles", k20Doc(withCycles(math.Inf(1)))},
		{"NaN block cycles", k20Doc(withCycles(math.NaN()))},
		{"zero pause", k20Doc(pauseEvent(0))},
		{"negative pause", k20Doc(pauseEvent(-1))},
		{"infinite pause", k20Doc(pauseEvent(math.Inf(1)))},
		{"NaN pause", k20Doc(pauseEvent(math.NaN()))},
		{"trailing bytes", append(k20Doc(pauseEvent(1)), 0)},
		{"trailing bytes after tombstone", append(encodeRaw(&LaunchTrace{device: "K20c", sensitive: true}), 0)},
		{"truncated", oneLaunch[:len(oneLaunch)-1]},
		{"event count beyond input", binary.AppendUvarint(bytes.Clone(hdr[:countAt]), 1<<28)},
		{"device length beyond input", patched(hdr, len(traceMagic)+1, 100)},
		{"run count beyond input", patched(oneLaunch, runsAt, 2)},
		{"empty run", patched(oneLaunch, runLenAt, 0)},
		{"run beyond grid", patched(oneLaunch, runLenAt, 2)},
		{"block cycles beyond the trace bound", k20Doc(launchEvent(func(cl *CapturedLaunch) { cl.Spec.Grid = maxTraceBlockCycles + 1 }))},
	}
	for _, tc := range cases {
		if _, err := DecodeTrace(tc.doc); err == nil {
			t.Errorf("%s: decoder accepted %q", tc.name, tc.doc)
		}
	}

	// The edited rows differ from these well-formed documents only in the
	// edited value.
	for _, doc := range [][]byte{oneLaunch, onePause, k20Doc(withScale(1)), k20Doc(withCycles(0)), k20Doc(launchEvent(nil), repeatEvent(0, 3))} {
		if _, err := DecodeTrace(doc); err != nil {
			t.Errorf("decoder rejected a well-formed document %q: %v", doc, err)
		}
	}

	// A JSON document of an earlier generation is refused by its version,
	// which brokers treat as a miss.
	_, err := DecodeTrace([]byte(`{"version":2,"device":"K20c"}`))
	if err == nil || !strings.Contains(err.Error(), "wire version 2, want 3") {
		t.Errorf("version-2 refusal %v does not name both versions", err)
	}

	// The trace bound is checked before the grid's block cycles are
	// allocated, and the refusal names it.
	_, err = DecodeTrace(k20Doc(launchEvent(func(cl *CapturedLaunch) { cl.Spec.Grid = maxTraceBlockCycles + 1 })))
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxTraceBlockCycles)) {
		t.Errorf("over-bound refusal %v does not name the bound", err)
	}

	// An unknown device is reported with the devices this build knows.
	_, err = DecodeTrace(encodeRaw(&LaunchTrace{device: "RivaTNT"}))
	if err == nil || !strings.Contains(err.Error(), "RivaTNT") || !strings.Contains(err.Error(), "K20c") {
		t.Errorf("unknown-device refusal %v does not name the device and the known list", err)
	}
}

// TestTraceCodecRejectsEveryTruncation: no proper prefix of a real capture
// decodes.
func TestTraceCodecRejectsEveryTruncation(t *testing.T) {
	data := encodeRaw(capture(captureProgram))
	for n := 0; n < len(data); n++ {
		if _, err := DecodeTrace(data[:n]); err == nil {
			t.Fatalf("decoder accepted the first %d of %d bytes", n, len(data))
		}
	}
}

// TestTraceCodecCarriesEveryStat: every KernelStats counter survives the
// wire, so a counter added to KernelStats and forgotten by the codec fails
// here.
func TestTraceCodecCarriesEveryStat(t *testing.T) {
	ev := launchEvent(nil)
	v := reflect.ValueOf(&ev.launch.Stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int64 {
			t.Fatalf("KernelStats.%s is a %s; the codec carries int64 counters", v.Type().Field(i).Name, f.Kind())
		}
		f.SetInt(int64(i+1) * 1_000_003)
	}
	got, err := DecodeTrace(k20Doc(ev))
	if err != nil {
		t.Fatal(err)
	}
	if stats := got.events[0].launch.Stats; stats != ev.launch.Stats {
		t.Errorf("stats %+v, want %+v", stats, ev.launch.Stats)
	}
}

// FuzzDecodeTrace: decoding never panics, and a document the decoder
// accepts re-encodes to bytes that decode to an identical trace.
func FuzzDecodeTrace(f *testing.F) {
	for _, program := range []func(*GPU){captureProgram, orderedProgram, irregularProgram} {
		f.Add(encodeRaw(capture(program)))
	}
	f.Add(encodeRaw(&LaunchTrace{device: "K20c", sensitive: true, reason: "mid-run Now() read"}))
	f.Add(k20Doc(launchEvent(nil), pauseEvent(1), repeatEvent(0, 3)))
	f.Add([]byte(`{"version":2,"device":"K20c"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := DecodeTrace(data)
		if err != nil {
			return
		}
		enc, err := EncodeTrace(first)
		if err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		second, err := DecodeTrace(enc)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		// Floats travel as raw bits, so equal encodings mean equal traces.
		if again := encodeRaw(second); !bytes.Equal(enc, again) {
			t.Fatal("re-encoded trace decodes to a different trace")
		}
		if first.Bytes() != second.Bytes() || len(first.events) != len(second.events) {
			t.Fatalf("footprint %d/%d events, want %d/%d", second.Bytes(), len(second.events), first.Bytes(), len(first.events))
		}
		for i := range first.events {
			if a, b := first.events[i].launch, second.events[i].launch; a != nil && !sameSchedule(a.sched, b.sched) {
				t.Fatalf("event %d: schedule %+v, want %+v", i, b.sched, a.sched)
			}
		}
	})
}
