package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/kepler"
	"repro/internal/trace"
)

// Launch-trace wire codec. A trace captured on one worker can replay on any
// other worker of the same device: the capture holds only clock-independent
// inputs (per-block issue cycles, merged statistics, scales), and every
// float travels as its raw IEEE-754 bits, so a decoded trace replays
// bit-identically to the original by construction. Ordered launches travel
// like any other launch. A tombstone is a document that records only a
// sensitivity verdict and no events: the earlier engine wrote one for a run
// that read the simulated clock mid-capture. A GPU cannot read the clock, so
// no capture makes one any more, but the format still carries the flag and
// the reason, and a decoded tombstone refuses to replay. The device tag
// travels with the trace, so cross-device replay refusal carries over
// unchanged. Each launch's block schedule is not on the wire: the decoder
// re-derives it from the validated block cycles and the SM count of the
// tagged device.
//
// A document is, in order (uvarint and varint as in encoding/binary; a
// float is its IEEE-754 bits, little-endian; a string is a uvarint length
// and its bytes; a flag is one byte, 0 or 1):
//
//	magic traceMagic, version uvarint
//	device string, sensitive flag, reason string, event count uvarint
//	per event, a kind byte and
//	  launch: name string; grid, block, shared-per-block varints; ordered
//	          flag; blocks and warps per SM varints, occupancy fraction
//	          float; the KernelStats counters as varints (statCounters
//	          order); scale float; run count uvarint, then per run the
//	          block cycles float and its repeat count uvarint
//	  pause:  duration float
//	  repeat: launch index varint, count varint
//
// Block cycles are run-length encoded: neighbouring blocks of a regular
// kernel cost the same, so a launch of tens of thousands of blocks usually
// travels as a few hundred runs.

// traceWireVersion guards the wire format; DecodeTrace rejects documents
// from a different format generation instead of misreading them, and
// brokers treat a rejection as a miss, so the program is captured again.
// Versions 1 and 2 were JSON (2 is the clock-free block order: a version-1
// document may be a tombstone for an ordered program that now replays);
// version 3 is the binary format.
const traceWireVersion = 3

// traceMagic opens every binary trace document. Its first byte is not
// printable, so no text document is ever mistaken for a trace.
const traceMagic = "\x89GTR"

// jsonGeneration is how every JSON document (versions 1 and 2) began:
// encoding/json wrote the version field first. DecodeTrace reads the version
// number after it, so a stale broker entry is refused by its version.
const jsonGeneration = `{"version":`

// maxTraceBlockCycles bounds the expanded block cycles of one trace. Run
// lengths let a few bytes stand for many blocks, so the payload size no
// longer bounds the decoded size; this is what the 64 MiB payload bound
// admitted as JSON, and 20x the largest corpus trace (DMR/5m, 396,904).
const maxTraceBlockCycles = 8 << 20

// Wire event kinds. Zero is not a kind.
const (
	wireLaunch byte = 1 + iota
	wirePause
	wireRepeat
)

// minRunBytes is the smallest encoding of one block-cycle run: the float
// and a one-byte count.
const minRunBytes = 9

// statCounters lists the KernelStats counters in wire order. Both codec
// directions go through it, so a field is either on the wire both ways or
// not at all (TestTraceCodecCarriesEveryStat catches the latter).
func statCounters(s *trace.KernelStats) [17]*int64 {
	return [...]*int64{
		&s.Warps, &s.Slots, &s.Paths, &s.LaneSlots,
		&s.IntInsts, &s.FP32Insts, &s.FP64Insts, &s.SFUInsts,
		&s.LoadSlots, &s.StoreSlots, &s.GlobalTxns, &s.GlobalBytes,
		&s.SharedSlots, &s.SharedCycles,
		&s.Atomics, &s.AtomicConflicts,
		&s.Syncs,
	}
}

// EncodeTrace serializes a trace for fleet brokering.
func EncodeTrace(t *LaunchTrace) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("sim: encode nil trace")
	}
	b := binary.AppendUvarint([]byte(traceMagic), traceWireVersion)
	b = appendString(b, t.device)
	b = appendFlag(b, t.sensitive)
	b = appendString(b, t.reason)
	b = binary.AppendUvarint(b, uint64(len(t.events)))
	for i := range t.events {
		ev := &t.events[i]
		switch ev.kind {
		case evLaunch:
			b = appendCapturedLaunch(append(b, wireLaunch), ev.launch)
		case evPause:
			b = appendFloat(append(b, wirePause), ev.pause)
		case evRepeat:
			b = binary.AppendVarint(append(b, wireRepeat), int64(ev.repeatIndex))
			b = binary.AppendVarint(b, int64(ev.repeatN))
		default:
			return nil, fmt.Errorf("sim: encode unknown event kind %d", ev.kind)
		}
	}
	return b, nil
}

func appendCapturedLaunch(b []byte, cl *CapturedLaunch) []byte {
	b = appendString(b, cl.Spec.Name)
	b = binary.AppendVarint(b, int64(cl.Spec.Grid))
	b = binary.AppendVarint(b, int64(cl.Spec.Block))
	b = binary.AppendVarint(b, int64(cl.Spec.SharedPerBlock))
	b = appendFlag(b, cl.Spec.Ordered)
	b = binary.AppendVarint(b, int64(cl.Occ.BlocksPerSM))
	b = binary.AppendVarint(b, int64(cl.Occ.WarpsPerSM))
	b = appendFloat(b, cl.Occ.Fraction)
	for _, c := range statCounters(&cl.Stats) {
		b = binary.AppendVarint(b, *c)
	}
	b = appendFloat(b, cl.Scale)
	cycles := cl.BlockCycles
	runs := 0
	for i := range cycles {
		if i == 0 || math.Float64bits(cycles[i]) != math.Float64bits(cycles[i-1]) {
			runs++
		}
	}
	b = binary.AppendUvarint(b, uint64(runs))
	for i := 0; i < len(cycles); {
		j := i + 1
		for j < len(cycles) && math.Float64bits(cycles[j]) == math.Float64bits(cycles[i]) {
			j++
		}
		b = binary.AppendUvarint(appendFloat(b, cycles[i]), uint64(j-i))
		i = j
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendFlag(b []byte, f bool) []byte {
	if f {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// DecodeTrace deserializes a brokered trace, as strict as capture: the
// version, the device, event kinds and flags, launch shapes, finite
// non-negative block cycles, scales of at least 1, positive finite pauses
// and in-range repeats are all checked, and truncated or trailing bytes are
// rejected. Every count is checked against the input left before anything
// is allocated for it, and a trace expands to at most maxTraceBlockCycles
// block cycles. The footprint accounting (Bytes) is recomputed with the
// capture-side formulas, so a decoded trace reports the same footprint the
// original did. A trace tagged with a device this build does not know is
// rejected: it could never replay.
func DecodeTrace(data []byte) (*LaunchTrace, error) {
	t, err := decodeTrace(data)
	if err != nil {
		return nil, fmt.Errorf("sim: decode trace: %w", err)
	}
	return t, nil
}

func decodeTrace(data []byte) (*LaunchTrace, error) {
	rest, ok := bytes.CutPrefix(data, []byte(traceMagic))
	if !ok {
		if rest, ok := bytes.CutPrefix(data, []byte(jsonGeneration)); ok {
			if digits := rest[:len(rest)-len(bytes.TrimLeft(rest, "0123456789"))]; len(digits) > 0 {
				return nil, fmt.Errorf("wire version %s, want %d", digits, traceWireVersion)
			}
		}
		return nil, errors.New("not a launch trace")
	}
	r := &wireReader{b: rest}
	if v := r.uvarint(); r.err == nil && v != traceWireVersion {
		return nil, fmt.Errorf("wire version %d, want %d", v, traceWireVersion)
	}
	device := r.string()
	t := &LaunchTrace{device: device, sensitive: r.flag(), reason: r.string()}
	n := r.count(1)
	if r.err != nil {
		return nil, r.err
	}
	if device == "" {
		return nil, errors.New("trace without device tag")
	}
	desc, err := kepler.DeviceByName(device)
	if err != nil {
		return nil, err
	}
	if t.sensitive {
		// Tombstone: refuse documents that claim both sensitivity and a
		// timeline.
		if n > 0 {
			return nil, fmt.Errorf("sensitive trace with %d events", n)
		}
		return t, r.end()
	}
	t.events = make([]captureEvent, 0, n)
	launches, budget := 0, maxTraceBlockCycles
	for i := 0; i < n; i++ {
		switch kind := r.byte(); kind {
		case wireLaunch:
			cl, err := r.launch(&budget)
			if err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
			cl.sched = blockSchedule(desc.SMs, cl.Occ, cl.BlockCycles)
			t.events = append(t.events, captureEvent{kind: evLaunch, launch: cl})
			t.bytes += int64(len(cl.BlockCycles))*8 + capturedLaunchOverhead
			launches++
		case wirePause:
			pause := r.float()
			if r.err != nil {
				return nil, fmt.Errorf("event %d: %w", i, r.err)
			}
			if !(pause > 0) || math.IsInf(pause, 1) {
				return nil, fmt.Errorf("event %d: pause %v, want finite and > 0", i, pause)
			}
			t.events = append(t.events, captureEvent{kind: evPause, pause: pause})
			t.bytes += 32
		case wireRepeat:
			index, count := r.int(), r.int()
			if r.err != nil {
				return nil, fmt.Errorf("event %d: %w", i, r.err)
			}
			if index < 0 || index >= launches {
				return nil, fmt.Errorf("event %d: repeat of launch %d with %d launches so far", i, index, launches)
			}
			if count < 0 {
				return nil, fmt.Errorf("event %d: repeat with negative count %d", i, count)
			}
			t.events = append(t.events, captureEvent{kind: evRepeat, repeatIndex: index, repeatN: count})
			t.bytes += 32
		default:
			if r.err != nil {
				return nil, fmt.Errorf("event %d: %w", i, r.err)
			}
			return nil, fmt.Errorf("event %d: unknown kind %d", i, kind)
		}
	}
	return t, r.end()
}

// launch reads one launch event's body and checks it; budget is the number
// of block cycles the trace may still expand to.
func (r *wireReader) launch(budget *int) (*CapturedLaunch, error) {
	cl := &CapturedLaunch{}
	cl.Spec.Name = r.string()
	cl.Spec.Grid, cl.Spec.Block, cl.Spec.SharedPerBlock = r.int(), r.int(), r.int()
	cl.Spec.Ordered = r.flag()
	cl.Occ.BlocksPerSM, cl.Occ.WarpsPerSM = r.int(), r.int()
	cl.Occ.Fraction = r.float()
	for _, c := range statCounters(&cl.Stats) {
		*c = r.varint()
	}
	cl.Scale = r.float()
	runs := r.count(minRunBytes)
	if r.err != nil {
		return nil, r.err
	}
	name, grid := cl.Spec.Name, cl.Spec.Grid
	if grid <= 0 || cl.Spec.Block <= 0 {
		return nil, fmt.Errorf("launch %q with grid %d block %d", name, grid, cl.Spec.Block)
	}
	if !(cl.Scale >= 1) || math.IsInf(cl.Scale, 1) {
		return nil, fmt.Errorf("scale %v in launch %q, want finite and >= 1", cl.Scale, name)
	}
	if cl.Occ.BlocksPerSM < 1 {
		return nil, fmt.Errorf("launch %q with %d resident blocks per SM", name, cl.Occ.BlocksPerSM)
	}
	if grid > *budget {
		return nil, fmt.Errorf("launch %q with grid %d exceeds the trace's remaining %d of %d block cycles", name, grid, *budget, maxTraceBlockCycles)
	}
	*budget -= grid
	cycles := make([]float64, 0, grid)
	for ; runs > 0; runs-- {
		c, k := r.float(), r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if !(c >= 0) || math.IsInf(c, 1) {
			return nil, fmt.Errorf("block cycles %v in launch %q, want finite and >= 0", c, name)
		}
		if k == 0 || k > uint64(grid-len(cycles)) {
			return nil, fmt.Errorf("launch %q with a run of %d blocks after %d of grid %d", name, k, len(cycles), grid)
		}
		n := len(cycles)
		cycles = cycles[:n+int(k)]
		for j := n; j < len(cycles); j++ {
			cycles[j] = c
		}
	}
	if len(cycles) != grid {
		return nil, fmt.Errorf("launch %q with %d block cycles for grid %d", name, len(cycles), grid)
	}
	cl.BlockCycles = cycles
	return cl, nil
}

// wireReader consumes a trace document. Its first failure sticks, so
// callers check err once per group of reads; a value read after a failure
// means nothing.
type wireReader struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated")

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *wireReader) byte() byte {
	if len(r.b) == 0 {
		r.fail(errTruncated)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *wireReader) flag() bool {
	c := r.byte()
	if c > 1 {
		r.fail(fmt.Errorf("flag byte %d, want 0 or 1", c))
	}
	return c == 1
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a varint that must fit an int.
func (r *wireReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("integer %d out of range", v))
		return 0
	}
	return int(v)
}

func (r *wireReader) float() float64 {
	if len(r.b) < 8 {
		r.fail(errTruncated)
		r.b = nil
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// count reads a uvarint count of items that each take at least minBytes of
// the input still to come, so a count the input cannot hold fails before
// anything is allocated for it.
func (r *wireReader) count(minBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)/minBytes) {
		r.fail(fmt.Errorf("count %d exceeds the %d bytes left", v, len(r.b)))
		return 0
	}
	return int(v)
}

func (r *wireReader) string() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// end reports the first failure, or trailing bytes after a whole document.
func (r *wireReader) end() error {
	if r.err == nil && len(r.b) > 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}
