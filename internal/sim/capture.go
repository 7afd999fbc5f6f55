package sim

import (
	"fmt"

	"repro/internal/kepler"
	"repro/internal/trace"
)

// Launch-trace capture & cross-config timing replay.
//
// A program runs on a GPU, which never sees a clock configuration: per-block
// KernelStats and issue cycles are pure functions of (spec, fn, block id)
// (see LaunchSpec's determinism contract), the block order of an ordered
// launch is a function of the kernel name and launch sequence number alone
// (launchSeed), and the handle exposes no simulated time. So the program's
// Go-side data evolution, and with it everything the GPU records, is the
// same at every configuration. The GPU records it once as a LaunchTrace,
// and ReplayInto prices that trace at any kepler.Clocks: the timing model
// (kernelTime) and timeline assembly run against the recorded launches,
// pauses and repeats. That replay is the only way to build a priced Device,
// and appendLaunch is its one pricing site, so every priced timeline — the
// capture configuration's included — comes from one code path.

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
	// repeatIndex/repeatN identify a GPU.Repeat call for evRepeat events;
	// the index is the launch's LaunchID (its position in Device.Launches).
	repeatIndex int
	repeatN     int
}

// LaunchTrace is the captured clock-independent timeline of one program run:
// every launch with its merged statistics and per-block issue cycles, every
// host pause, and every launch-replay (Repeat) in issue order. A decoded
// wire-version-3 tombstone (see codec.go) is a trace marked clock-sensitive
// with no events; it refuses to replay.
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

// ClockSensitive reports whether the trace is a decoded tombstone: a
// document recording that its run read the simulated clock, which a run on
// a GPU cannot do.
func (t *LaunchTrace) ClockSensitive() bool { return t.sensitive }

// SensitiveReason is a tombstone's recorded reason ("" for a replayable
// trace).
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

// recordLaunch captures one completed launch. cl is the launch path's own
// record; only its BlockCycles, which alias the GPU's scratch buffer, are
// copied.
func (t *LaunchTrace) recordLaunch(cl *CapturedLaunch) {
	cl.BlockCycles = append([]float64(nil), cl.BlockCycles...)
	t.events = append(t.events, captureEvent{kind: evLaunch, launch: cl})
	t.bytes += int64(len(cl.BlockCycles))*8 + capturedLaunchOverhead
}

// capturedLaunchOverhead approximates the fixed per-launch footprint
// (CapturedLaunch struct, KernelStats, event entry).
const capturedLaunchOverhead = 256

// recordPause captures a HostPause.
func (t *LaunchTrace) recordPause(dt float64) {
	t.events = append(t.events, captureEvent{kind: evPause, pause: dt})
	t.bytes += 32
}

// recordRepeat captures a GPU.Repeat call on the launch at the given
// timeline index.
func (t *LaunchTrace) recordRepeat(index, n int) {
	t.events = append(t.events, captureEvent{kind: evRepeat, repeatIndex: index, repeatN: n})
	t.bytes += 32
}

// Replay prices the captured timeline at clk into a fresh device; it is
// ReplayInto(nil, clk).
func (t *LaunchTrace) Replay(clk kepler.Clocks) (*Device, error) {
	return t.ReplayInto(nil, clk)
}

// ReplayInto prices the captured timeline at clk: it runs the priced half of
// the timing model (kernelTime) and timeline assembly over the recorded
// launches, pauses and repeats, in issue order. The simulation itself
// (thread functions, statistics merging) does not run again, and neither
// does the block schedule: each launch costs O(1), a replay O(launches). The
// result is a pure function of the trace and clk, so any two replays of one
// trace at one configuration are bit-identical, whichever worker captured
// it.
//
// The device is built in dst's storage: ReplayInto resets dst to a new
// device at clk and reuses the launch block, Launches and Gaps of its former
// timeline, so a caller that prices many configurations in turn allocates
// nothing per launch once dst has held the longest timeline. dst must be a
// device the caller no longer uses: every *Launch it held is overwritten. A
// nil dst replays into a fresh device. On error dst is left unusable but may
// be passed to ReplayInto again. It fails on a tombstone and on a trace
// captured on another device.
func (t *LaunchTrace) ReplayInto(dst *Device, clk kepler.Clocks) (*Device, error) {
	if t.sensitive {
		return nil, fmt.Errorf("sim: trace is clock-sensitive (%s); replay would be unsound", t.reason)
	}
	if dev := clk.Device().Name; t.device != "" && dev != t.device {
		return nil, fmt.Errorf("sim: trace captured on device %s cannot replay on %s: block statistics and issue cycles are device-dependent", t.device, dev)
	}
	// Size the timeline up front and keep its launches in one block: every
	// launch adds one record and at most one inter-launch gap.
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
	d := dst
	if d == nil {
		d = new(Device)
	}
	block, ls, gs := d.replayed, d.Launches, d.Gaps
	if cap(block) < launches {
		block = make([]Launch, launches)
	}
	if cap(ls) < launches {
		ls = make([]*Launch, 0, launches)
	}
	if cap(gs) < gaps {
		gs = make([]Gap, 0, gaps)
	}
	*d = Device{Clocks: clk, Launches: ls[:0], Gaps: gs[:0], replayed: block[:launches]}
	for i := range t.events {
		ev := &t.events[i]
		switch ev.kind {
		case evLaunch:
			d.appendLaunch(ev.launch, &d.replayed[len(d.Launches)])
		case evPause:
			d.hostPause(ev.pause)
		case evRepeat:
			if ev.repeatIndex < 0 || ev.repeatIndex >= len(d.Launches) {
				return nil, fmt.Errorf("sim: corrupt trace: repeat of launch %d with %d launches recorded", ev.repeatIndex, len(d.Launches))
			}
			d.repeat(d.Launches[ev.repeatIndex], ev.repeatN)
		}
	}
	return d, nil
}

// interLaunchGap is the host-side time between consecutive launches
// (driver/launch overhead), in seconds.
const interLaunchGap = 40e-6

// appendLaunch prices a launch record at d's clocks into l and appends it to
// the timeline: the inter-launch gap, kernelTime, the surrogate scale and
// the clock advance. It is the engine's one pricing site.
func (d *Device) appendLaunch(cl *CapturedLaunch, l *Launch) {
	if len(d.Launches) > 0 || len(d.Gaps) > 0 {
		d.Gaps = append(d.Gaps, Gap{Start: d.now, Duration: interLaunchGap})
		d.now += interLaunchGap
	}

	*l = Launch{
		Name:           cl.Spec.Name,
		Seq:            len(d.Launches),
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

// hostPause advances the timeline by a recorded host pause of dt seconds.
func (d *Device) hostPause(dt float64) {
	d.Gaps = append(d.Gaps, Gap{Start: d.now, Duration: dt})
	d.now += dt
}

// repeat prices a recorded Repeat: l now stands for n executions, and the
// launches and gaps that follow it on the timeline shift right by the
// added executions.
func (d *Device) repeat(l *Launch, n int) {
	if n <= l.Repeat {
		return
	}
	extra := float64(n-l.Repeat) * l.Duration
	l.Repeat = n
	for _, other := range d.Launches {
		if other != l && other.Start > l.Start {
			other.Start += extra
		}
	}
	for i := range d.Gaps {
		if d.Gaps[i].Start > l.Start {
			d.Gaps[i].Start += extra
		}
	}
	d.now += extra
}
