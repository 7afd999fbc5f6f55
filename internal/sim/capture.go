package sim

import (
	"fmt"

	"repro/internal/kepler"
	"repro/internal/trace"
)

// Launch-trace capture & cross-config timing replay.
//
// The engine's block simulation never sees the clock configuration: per-block
// KernelStats and issue cycles are pure functions of (spec, fn, block id),
// and the clocks enter only when kernelTime prices them (see LaunchSpec's
// determinism contract). A capture therefore records the clock-independent
// half of a run — the launch timeline — once, and Replay re-runs only the
// pricing against any other kepler.Clocks, reproducing the timeline state a
// fresh simulation at that configuration would have produced, bit for bit,
// at a tiny fraction of the cost.
//
// The soundness boundary is the program's Go-side data evolution. Ordered
// launches do not cross it: their block permutation is a function of the
// kernel name and launch sequence number alone (launchSeed), so they capture
// and replay like any other launch. What does cross it is a mid-run read of
// the simulated clock: a program that branches on Now() or ActiveTime()
// while capturing sees config-dependent values, so both methods mark the
// trace clock-sensitive when a capture is active. A clock-sensitive trace
// refuses to Replay, and core.Runner, which prices every measurement by
// replay, fails such a program's measurement naming the read.

// captureEventKind tags the entries of a captured launch timeline.
type captureEventKind uint8

const (
	evLaunch captureEventKind = iota
	evPause
	evRepeat
)

// CapturedLaunch is the clock-independent record of one kernel launch: its
// shape, occupancy, merged statistics, per-block issue cycles indexed by
// block id, and the surrogate scale in force when it was issued. Everything
// kernelTime needs, nothing the clocks influence.
//
// The block schedule derived from BlockCycles rides along unexported: it is
// not serialized (BlockCycles stays the wire format's source of truth) and
// DecodeTrace re-derives it.
type CapturedLaunch struct {
	Spec LaunchSpec
	Occ  kepler.Occupancy
	// Stats are the merged warp statistics of one execution.
	Stats trace.KernelStats
	// BlockCycles are the per-block issue cycles, indexed by block id
	// (copied: the device reuses its scratch buffer across launches).
	BlockCycles []float64
	// Scale is the device's surrogate time scale at launch time.
	Scale float64

	sched launchSchedule
}

// captureEvent is one entry of the captured timeline, in issue order.
type captureEvent struct {
	kind captureEventKind
	// launch is set for evLaunch events.
	launch *CapturedLaunch
	// pause is the HostPause duration for evPause events.
	pause float64
	// repeatIndex/repeatN identify a Device.Repeat call for evRepeat events;
	// the index is the launch's position in Device.Launches (== its Seq).
	repeatIndex int
	repeatN     int
}

// LaunchTrace is the captured clock-independent timeline of one program run:
// every launch with its merged statistics and per-block issue cycles, every
// host pause, and every launch-replay (Repeat) in issue order. A trace whose
// run was clock-sensitive records only that fact (its events are dropped).
type LaunchTrace struct {
	events []captureEvent

	// device names the GPU description the trace was captured on. Block
	// statistics and issue cycles depend on the device's geometry and
	// throughputs, so a trace only ever replays on the device it was
	// captured for (Replay enforces it).
	device string

	sensitive bool
	reason    string

	bytes int64
}

// DeviceName returns the name of the device the trace was captured on.
func (t *LaunchTrace) DeviceName() string { return t.device }

// ClockSensitive reports whether the captured run's Go-side behaviour could
// depend on the clock configuration, making cross-config replay unsound.
func (t *LaunchTrace) ClockSensitive() bool { return t.sensitive }

// SensitiveReason names the first capture event that made the run
// clock-sensitive ("" when the trace is replayable).
func (t *LaunchTrace) SensitiveReason() string { return t.reason }

// Launches returns the number of captured launch events.
func (t *LaunchTrace) Launches() int {
	n := 0
	for i := range t.events {
		if t.events[i].kind == evLaunch {
			n++
		}
	}
	return n
}

// Bytes returns the approximate memory footprint of the captured timeline,
// dominated by the per-block issue-cycle arrays.
func (t *LaunchTrace) Bytes() int64 { return t.bytes }

// markSensitive flags the trace as clock-sensitive and drops the events
// recorded so far — a sensitive trace cannot be replayed, so keeping its
// timeline would only pin memory.
func (t *LaunchTrace) markSensitive(reason string) {
	if t.sensitive {
		return
	}
	t.sensitive = true
	t.reason = reason
	t.events = nil
	t.bytes = 0
}

// BeginCapture switches the device into capture mode: every subsequent
// launch, host pause and launch-replay is recorded into a LaunchTrace until
// EndCapture. Capture changes nothing about the simulation itself; it only
// copies the clock-independent inputs of the timing model as they are
// produced. It panics if a capture is already active.
func (d *Device) BeginCapture() {
	if d.capture != nil {
		panic("sim: BeginCapture while a capture is active")
	}
	d.capture = &LaunchTrace{device: d.desc.Name}
}

// EndCapture stops capturing and returns the trace. The trace is
// self-contained: it stays valid after the device is discarded.
func (d *Device) EndCapture() *LaunchTrace {
	t := d.capture
	if t == nil {
		panic("sim: EndCapture without BeginCapture")
	}
	d.capture = nil
	return t
}

// recordLaunch captures one completed launch. cl is the launch path's own
// record; only its BlockCycles, which alias the device's scratch buffer, are
// copied.
func (t *LaunchTrace) recordLaunch(cl *CapturedLaunch) {
	if t.sensitive {
		return
	}
	cl.BlockCycles = append([]float64(nil), cl.BlockCycles...)
	t.events = append(t.events, captureEvent{kind: evLaunch, launch: cl})
	t.bytes += int64(len(cl.BlockCycles))*8 + capturedLaunchOverhead
}

// capturedLaunchOverhead approximates the fixed per-launch footprint
// (CapturedLaunch struct, KernelStats, event entry).
const capturedLaunchOverhead = 256

// recordPause captures a HostPause.
func (t *LaunchTrace) recordPause(dt float64) {
	if t.sensitive {
		return
	}
	t.events = append(t.events, captureEvent{kind: evPause, pause: dt})
	t.bytes += 32
}

// recordRepeat captures a Device.Repeat call on the launch at the given
// timeline index.
func (t *LaunchTrace) recordRepeat(index, n int) {
	if t.sensitive {
		return
	}
	t.events = append(t.events, captureEvent{kind: evRepeat, repeatIndex: index, repeatN: n})
	t.bytes += 32
}

// Replay prices a captured timeline at a different clock configuration: it
// re-runs only the priced half of the timing model (kernelTime) and timeline
// assembly against the recorded launches, pauses and repeats, producing a
// device whose timeline state — Launches, Gaps and Now() — is bit-identical
// to a fresh simulation of the same program at clk. The simulation itself
// (thread functions, statistics merging) does not run again, and neither
// does the block schedule: each launch costs O(1), a replay O(launches).
//
// Bit-identity holds by construction: each launch goes through the same
// appendLaunch tail the live path used, on the same inputs (stats and the
// block schedule are clock-independent; the schedule is the very value the
// launch path computed once and priced), and pauses and repeats through the
// same HostPause and Repeat. It fails on a clock-sensitive trace, whose
// Go-side evolution the timing model alone cannot reproduce.
func (t *LaunchTrace) Replay(clk kepler.Clocks) (*Device, error) {
	if t.sensitive {
		return nil, fmt.Errorf("sim: trace is clock-sensitive (%s); replay would be unsound", t.reason)
	}
	if dev := clk.Device().Name; t.device != "" && dev != t.device {
		return nil, fmt.Errorf("sim: trace captured on device %s cannot replay on %s: block statistics and issue cycles are device-dependent", t.device, dev)
	}
	d := NewDevice(clk)
	// Size the timeline up front and allocate its launches in one block:
	// every launch adds one record and at most one inter-launch gap.
	launches, gaps := 0, 0
	for i := range t.events {
		switch t.events[i].kind {
		case evLaunch:
			launches++
			gaps++
		case evPause:
			gaps++
		}
	}
	block := make([]Launch, launches)
	d.Launches = make([]*Launch, 0, launches)
	d.Gaps = make([]Gap, 0, gaps)
	for i := range t.events {
		ev := &t.events[i]
		switch ev.kind {
		case evLaunch:
			d.appendLaunch(ev.launch, d.seq, &block[len(d.Launches)])
			d.seq++
		case evPause:
			d.HostPause(ev.pause)
		case evRepeat:
			if ev.repeatIndex < 0 || ev.repeatIndex >= len(d.Launches) {
				return nil, fmt.Errorf("sim: corrupt trace: repeat of launch %d with %d launches recorded", ev.repeatIndex, len(d.Launches))
			}
			d.Repeat(d.Launches[ev.repeatIndex], ev.repeatN)
		}
	}
	return d, nil
}

// appendLaunch prices a launch record at d's clocks into l and appends it to
// the timeline as launch seq: the inter-launch gap, kernelTime, the
// surrogate scale and the clock advance. It is the one launch tail of both
// the live path (LaunchSpec) and Replay, so a replayed timeline performs
// the float operations of a fresh simulation in the same order by
// construction.
func (d *Device) appendLaunch(cl *CapturedLaunch, seq int, l *Launch) {
	// Host-side gap before this launch (driver/launch overhead).
	if len(d.Launches) > 0 || len(d.Gaps) > 0 {
		d.Gaps = append(d.Gaps, Gap{Start: d.now, Duration: d.interLaunchGap})
		d.now += d.interLaunchGap
	}

	*l = Launch{
		Name:           cl.Spec.Name,
		Seq:            seq,
		Grid:           cl.Spec.Grid,
		Block:          cl.Spec.Block,
		SharedPerBlock: cl.Spec.SharedPerBlock,
		Occ:            cl.Occ,
		Stats:          cl.Stats,
		Start:          d.now,
		Repeat:         1,
		Scale:          cl.Scale,
	}
	l.Duration, l.TCore, l.TMem = kernelTime(d.Clocks, cl.Occ, &cl.Stats, cl.sched)
	l.Duration *= cl.Scale
	l.TCore *= cl.Scale
	l.TMem *= cl.Scale
	d.now += l.Duration
	d.Launches = append(d.Launches, l)
}
