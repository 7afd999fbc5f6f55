// Package power converts the simulated device's launch records into a power
// draw over time. The model is energy-based: every warp instruction, memory
// transaction and atomic carries a per-event energy (scaled by the square of
// the DVFS voltage), and a configuration-dependent static/board power burns
// for the whole active duration. A launch's average power is its total
// energy divided by its duration, which reproduces the paper's first-order
// phenomena:
//
//   - lowering the core clock lowers power superlinearly on compute-bound
//     codes (voltage drops with frequency, P ~ V^2 f) while dynamic energy
//     stays nearly constant;
//   - memory-bound codes draw little core power, so their total stays low
//     (many below the low 50 W range, as in the paper);
//   - irregular codes burn extra issue energy on serialized divergent paths
//     and extra DRAM energy on uncoalesced transactions, so they draw more
//     power than regular memory-bound codes;
//   - slowing the memory clock stretches runtime, so the same dynamic energy
//     spreads over more seconds and power falls toward the static floor.
package power

import (
	"slices"

	"repro/internal/kepler"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Measurement-protocol timing (properties of the methodology, not of any
// board).
const (
	tailDuration = 1.6 // seconds the driver holds the tail level
	leadIdle     = 2.0 // seconds of idle recorded before the first kernel
	trailIdle    = 2.5 // seconds of idle recorded after the tail
)

// The per-event energies live in kepler.EnergyTable on each device profile
// (joules per warp instruction / DRAM transaction, quoted at the reference
// voltage; warp-instruction energies cover all 32 lanes). A device's
// PowerModel supplies the voltage reference, the static/idle power floors
// and the EnergyScale that adapts the per-event energies to other process
// nodes and power envelopes.

// StaticActiveW returns the static power burned while the GPU is executing,
// for the given configuration.
func StaticActiveW(clk kepler.Clocks) float64 {
	d := clk.Device()
	v := clk.VoltageV / d.Power.RefVoltageV
	f := float64(clk.CoreMHz) / float64(d.DefaultCoreMHz)
	return (d.Power.BoardStaticW + d.Power.LeakageRefW*v*v*(0.45+0.55*f)) * d.Power.StaticScale
}

// IdleW returns the driver-idle power of the configuration's board.
func IdleW(clk kepler.Clocks) float64 {
	d := clk.Device()
	return d.Power.IdleW * d.Power.IdleScale
}

// TailW returns the post-kernel persistence power level: the driver keeps
// the clocks up for a while in case another kernel arrives, burning a
// fraction of the active static power above idle.
func TailW(clk kepler.Clocks) float64 {
	return IdleW(clk) + 0.2*(StaticActiveW(clk)-IdleW(clk))
}

// LaunchEnergy returns the total energy in joules consumed by one execution
// of the launch: its dynamic energy — the ordered sum of its class energies,
// times the launch's timing scale — plus static power over its duration.
func LaunchEnergy(clk kepler.Clocks, l *sim.Launch) float64 {
	return execEnergy(classEnergies(clk, &l.Stats), StaticActiveW(clk), l)
}

// execEnergy is LaunchEnergy from the class energies of one execution and
// the configuration's static power.
func execEnergy(classes ClassVec, static float64, l *sim.Launch) float64 {
	return classes.Total()*l.Scale + static*l.Duration
}

// priceLaunches prices every launch of dev once, in launch order. It calls
// visit, when non-nil, with each launch, the class energies of one
// execution and that execution's energy, and returns the run's active
// energy: each execution's energy times its repeats, summed in launch
// order. It is the one launch-energy sum; ActiveEnergy, AppendTimeline and
// Attribute all total through it, so their totals agree bit for bit.
func priceLaunches(dev *sim.Device, visit func(l *sim.Launch, classes ClassVec, exec float64)) float64 {
	clk := dev.Clocks
	static := StaticActiveW(clk)
	var e float64
	for _, l := range dev.Launches {
		classes := classEnergies(clk, &l.Stats)
		exec := execEnergy(classes, static, l)
		if visit != nil {
			visit(l, classes, exec)
		}
		e += exec * float64(l.Repeat)
	}
	return e
}

// classEnergies prices one execution of a launch's statistics into the nine
// attribution classes. It is the only place the per-event energies are
// applied: LaunchEnergy charges its Total() and AttributeLaunch reports its
// classes, so the two agree by construction.
func classEnergies(clk kepler.Clocks, s *trace.KernelStats) ClassVec {
	d := clk.Device()
	t := d.Energy
	v := clk.VoltageV / d.Power.RefVoltageV
	v2 := v * v

	var vec ClassVec
	vec[ClassInt] = float64(s.IntInsts) * t.IntJ
	vec[ClassFP32] = float64(s.FP32Insts) * t.FP32J
	vec[ClassFP64] = float64(s.FP64Insts) * t.FP64J
	vec[ClassSFU] = float64(s.SFUInsts) * t.SFUJ
	vec[ClassShared] = float64(s.SharedCycles) * t.SharedJ
	vec[ClassLDST] = float64(s.LoadSlots+s.StoreSlots) * t.LDSTJ
	vec[ClassSync] = float64(s.Syncs) * t.SyncJ
	// Serialized divergent paths keep fetch/decode and the operand
	// collectors busy without retiring useful lanes.
	divMul := 1.0
	if dr := s.DivergenceRatio(); dr > 1 {
		divMul = 1 + t.DivergenceFactor*(dr-1)
	}
	for c := ClassInt; c <= ClassSync; c++ {
		vec[c] = vec[c] * divMul * v2
	}
	vec[ClassDRAM] = effectiveTxns(clk, s) * t.TxnJ
	vec[ClassAtomic] = float64(s.Atomics) * t.AtomicJ
	for c := range vec {
		vec[c] *= d.Power.EnergyScale
	}
	return vec
}

// effectiveTxns inflates the raw DRAM transaction count into the effective
// count the energy model charges: row-buffer-locality inflation for
// scattered streams, and ECC word traffic plus controller check energy
// (expressed in transaction-equivalents) when ECC is on.
func effectiveTxns(clk kepler.Clocks, s *trace.KernelStats) float64 {
	d := clk.Device()
	txns := float64(s.GlobalTxns)
	// Scattered transactions hit closed DRAM rows: the activate/precharge
	// energy per transaction rises steeply as row-buffer locality drops.
	// This is what makes irregular codes draw more power than regular
	// memory-bound streams (paper section V.C).
	txns *= 1 + 0.9*(1-s.CoalescingEfficiency())
	if clk.ECC {
		// ECC words travel with the data; scattered streams amortize them
		// poorly (mirrors the timing model's transaction inflation), and the
		// controller burns check/correct energy on every transaction.
		txns *= d.ECC.EnergyFactor * (1 + d.ECC.BandwidthPenalty*(1-s.CoalescingEfficiency()))
		txns += float64(s.GlobalTxns) * d.ECC.CheckEnergyJ / d.Energy.TxnJ
	}
	return txns
}

// LaunchPower returns the average power in watts during one execution of the
// launch.
func LaunchPower(clk kepler.Clocks, l *sim.Launch) float64 {
	return execPower(LaunchEnergy(clk, l), StaticActiveW(clk), l)
}

// execPower is LaunchPower from one execution's energy and the
// configuration's static power.
func execPower(exec, static float64, l *sim.Launch) float64 {
	if l.Duration <= 0 {
		return static
	}
	return exec / l.Duration
}

// Segment is a span of constant true power on the timeline.
type Segment struct {
	Start, Duration float64
	Watts           float64
}

// End returns Start+Duration.
func (s Segment) End() float64 { return s.Start + s.Duration }

// Timeline converts a finished device run into a true-power timeline:
// leading idle, per-launch plateaus, tail-level host gaps, the driver tail
// after the last kernel, and trailing idle. Segment times are shifted so the
// timeline starts at zero.
func Timeline(dev *sim.Device) []Segment {
	segs, _ := AppendTimeline(nil, dev)
	return segs
}

// AppendTimeline appends dev's Timeline to dst and returns it together with
// ActiveEnergy(dev), pricing each launch once for both, so a caller that
// converts many runs can reuse one buffer (pass dst[:0]).
//
// The device's launches and gaps are each in start order (Device.Repeat
// shifts every later launch and gap by the same amount), so one linear
// merge orders the timeline: before each launch come the gaps that start
// strictly earlier, so on equal starts the launch comes first.
func AppendTimeline(dst []Segment, dev *sim.Device) ([]Segment, float64) {
	clk := dev.Clocks
	segs := slices.Grow(dst, len(dev.Launches)+len(dev.Gaps)+4)
	idle, tail, static := IdleW(clk), TailW(clk), StaticActiveW(clk)
	segs = append(segs, Segment{Start: 0, Duration: leadIdle, Watts: idle})

	end := leadIdle
	emit := func(start, dur, watts float64) {
		if dur > 0 {
			segs = append(segs, Segment{Start: leadIdle + start, Duration: dur, Watts: watts})
		}
		end = leadIdle + start + dur
	}
	gaps := dev.Gaps
	energy := priceLaunches(dev, func(l *sim.Launch, _ ClassVec, exec float64) {
		for len(gaps) > 0 && gaps[0].Start < l.Start {
			emit(gaps[0].Start, gaps[0].Duration, tail)
			gaps = gaps[1:]
		}
		emit(l.Start, l.TotalDuration(), execPower(exec, static, l))
	})
	for _, g := range gaps {
		emit(g.Start, g.Duration, tail)
	}
	segs = append(segs, Segment{Start: end, Duration: tailDuration, Watts: tail})
	segs = append(segs, Segment{Start: end + tailDuration, Duration: trailIdle, Watts: idle})
	return segs, energy
}

// ActiveEnergy returns the energy of the device's kernel executions only
// (the ground truth the measurement stack tries to recover).
func ActiveEnergy(dev *sim.Device) float64 {
	return priceLaunches(dev, nil)
}
