package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/kepler"
)

// Launch-trace wire codec. A trace captured on one worker can replay on any
// other worker of the same device: the capture holds only clock-independent
// float inputs (per-block issue cycles, merged statistics, scales), and
// Go's JSON encoding round-trips float64 values bit-exactly (shortest
// representation that re-parses to the same bits), so a decoded trace
// replays bit-identically to the original. Tombstones (clock-sensitive
// traces) serialize as their sensitivity verdict alone, mirroring
// markSensitive dropping the events in memory; the device tag travels with
// the trace, so cross-device replay refusal carries over unchanged. Each
// launch's block schedule is not on the wire: the decoder re-derives it
// from the validated block cycles and the SM count of the tagged device.

// traceWireVersion guards the wire format; DecodeTrace rejects documents
// from a different format generation instead of misreading them.
const traceWireVersion = 1

// wireTrace is the serialized form of a LaunchTrace.
type wireTrace struct {
	Version   int         `json:"version"`
	Device    string      `json:"device"`
	Sensitive bool        `json:"sensitive,omitempty"`
	Reason    string      `json:"reason,omitempty"`
	Events    []wireEvent `json:"events,omitempty"`
}

// wireEvent is one timeline entry; Kind selects which fields are set.
type wireEvent struct {
	Kind   string          `json:"kind"`
	Launch *CapturedLaunch `json:"launch,omitempty"`
	Pause  float64         `json:"pause,omitempty"`
	Index  int             `json:"index,omitempty"`
	N      int             `json:"n,omitempty"`
}

const (
	wireKindLaunch = "launch"
	wireKindPause  = "pause"
	wireKindRepeat = "repeat"
)

// EncodeTrace serializes a trace for fleet brokering.
func EncodeTrace(t *LaunchTrace) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("sim: encode nil trace")
	}
	wt := wireTrace{
		Version:   traceWireVersion,
		Device:    t.device,
		Sensitive: t.sensitive,
		Reason:    t.reason,
	}
	for i := range t.events {
		ev := &t.events[i]
		switch ev.kind {
		case evLaunch:
			wt.Events = append(wt.Events, wireEvent{Kind: wireKindLaunch, Launch: ev.launch})
		case evPause:
			wt.Events = append(wt.Events, wireEvent{Kind: wireKindPause, Pause: ev.pause})
		case evRepeat:
			wt.Events = append(wt.Events, wireEvent{Kind: wireKindRepeat, Index: ev.repeatIndex, N: ev.repeatN})
		default:
			return nil, fmt.Errorf("sim: encode unknown event kind %d", ev.kind)
		}
	}
	return json.Marshal(wt)
}

// DecodeTrace deserializes a brokered trace, validating structure as it
// goes: version, event kinds, launch shapes, and finite floats (JSON cannot
// carry NaN/Inf, but a hand-crafted document should still fail cleanly).
// The footprint accounting (Bytes) is recomputed with the capture-side
// formulas, so a decoded trace reports the same footprint the original did.
// A trace tagged with a device this build does not know is rejected: it
// could never replay.
func DecodeTrace(data []byte) (*LaunchTrace, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var wt wireTrace
	if err := dec.Decode(&wt); err != nil {
		return nil, fmt.Errorf("sim: decode trace: %w", err)
	}
	if wt.Version != traceWireVersion {
		return nil, fmt.Errorf("sim: trace wire version %d, want %d", wt.Version, traceWireVersion)
	}
	if wt.Device == "" {
		return nil, fmt.Errorf("sim: trace without device tag")
	}
	desc, err := kepler.DeviceByName(wt.Device)
	if err != nil {
		return nil, fmt.Errorf("sim: decode trace: %w", err)
	}
	t := &LaunchTrace{device: wt.Device, sensitive: wt.Sensitive, reason: wt.Reason}
	if t.sensitive {
		// Tombstone: events were dropped at capture time; refuse documents
		// that claim both sensitivity and a timeline.
		if len(wt.Events) > 0 {
			return nil, fmt.Errorf("sim: sensitive trace with %d events", len(wt.Events))
		}
		return t, nil
	}
	launches := 0
	for i, ev := range wt.Events {
		switch ev.Kind {
		case wireKindLaunch:
			cl := ev.Launch
			if cl == nil {
				return nil, fmt.Errorf("sim: event %d: launch event without launch", i)
			}
			if cl.Spec.Grid <= 0 || cl.Spec.Block <= 0 {
				return nil, fmt.Errorf("sim: event %d: launch %q with grid %d block %d", i, cl.Spec.Name, cl.Spec.Grid, cl.Spec.Block)
			}
			if cl.Spec.Ordered {
				return nil, fmt.Errorf("sim: event %d: ordered launch %q in a non-sensitive trace", i, cl.Spec.Name)
			}
			if len(cl.BlockCycles) != cl.Spec.Grid {
				return nil, fmt.Errorf("sim: event %d: launch %q with %d block cycles for grid %d", i, cl.Spec.Name, len(cl.BlockCycles), cl.Spec.Grid)
			}
			for _, c := range cl.BlockCycles {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					return nil, fmt.Errorf("sim: event %d: non-finite block cycles in launch %q", i, cl.Spec.Name)
				}
			}
			if !(cl.Scale >= 1) || math.IsInf(cl.Scale, 1) {
				return nil, fmt.Errorf("sim: event %d: scale %v in launch %q, want finite and >= 1", i, cl.Scale, cl.Spec.Name)
			}
			if cl.Occ.BlocksPerSM < 1 {
				return nil, fmt.Errorf("sim: event %d: launch %q with %d resident blocks per SM", i, cl.Spec.Name, cl.Occ.BlocksPerSM)
			}
			cl.sched = blockSchedule(desc.SMs, cl.Occ, cl.BlockCycles)
			t.events = append(t.events, captureEvent{kind: evLaunch, launch: cl})
			t.bytes += int64(len(cl.BlockCycles))*8 + capturedLaunchOverhead
			launches++
		case wireKindPause:
			if math.IsNaN(ev.Pause) || math.IsInf(ev.Pause, 0) {
				return nil, fmt.Errorf("sim: event %d: non-finite pause", i)
			}
			t.events = append(t.events, captureEvent{kind: evPause, pause: ev.Pause})
			t.bytes += 32
		case wireKindRepeat:
			if ev.Index < 0 || ev.Index >= launches {
				return nil, fmt.Errorf("sim: event %d: repeat of launch %d with %d launches so far", i, ev.Index, launches)
			}
			if ev.N < 0 {
				return nil, fmt.Errorf("sim: event %d: repeat with negative count %d", i, ev.N)
			}
			t.events = append(t.events, captureEvent{kind: evRepeat, repeatIndex: ev.Index, repeatN: ev.N})
			t.bytes += 32
		default:
			return nil, fmt.Errorf("sim: event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return t, nil
}
