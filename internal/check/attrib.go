package check

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/microbench"
	"repro/internal/power"
	"repro/internal/sim"
)

// The attribution invariants are bit-exact (==, no tolerance): the
// attribution pass reports the energies the pipeline already computed, and a
// total that does not match is an accounting bug, not a physics margin. The
// calibration invariants recover EnergyTable entries from attributed
// microbenchmark energies and so carry float round-off from the division
// chain; calibEntryTol bounds them.
const calibEntryTol = 1e-9 // recovered table entry vs its table value

// checkAttribution asserts the energy-attribution invariants for one
// program across the swept configurations:
//
//   - every launch's statistics pass trace's accounting checks;
//   - no launch charges a class a negative energy;
//   - the run's attributed grand total equals power.ActiveEnergy — and,
//     when the combination measured, the stored Result.TrueEnergy.
//
// That the classes sum to the dynamic energy needs no check: power defines
// a launch's dynamic energy as that sum.
//
// The devices are replays from the launch-trace cache, so on the
// selfcheck's warm cache this pass simulates nothing.
func checkAttribution(ctx context.Context, r *core.Runner, p core.Program, configs []kepler.Clocks, byConfig map[string]*core.Result) ([]Violation, int, error) {
	var vs []Violation
	checks := 0
	input := p.DefaultInput()
	bad := func(clk kepler.Clocks, format string, args ...any) {
		vs = append(vs, Violation{
			Invariant: "energy-attribution",
			Program:   p.Name(), Input: input, Config: clk.Name,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	for _, clk := range configs {
		dev, err := r.SimulatedDevice(ctx, p, input, clk)
		if err != nil {
			return nil, checks, fmt.Errorf("check: attribution %s@%s: %w", p.Name(), clk.Name, err)
		}
		a := power.Attribute(dev)
		for i, la := range a.Launches {
			checks++
			if aerr := dev.Launches[i].Stats.CheckAccounting(); aerr != nil {
				bad(clk, "launch %s#%d: %v", la.Kernel, la.Seq, aerr)
			}
			checks++
			for c, e := range la.Classes {
				if e < 0 {
					bad(clk, "launch %s#%d: negative %s energy %g", la.Kernel, la.Seq, power.Class(c), e)
				}
			}
		}
		checks++
		if want := power.ActiveEnergy(dev); a.TotalJ != want {
			bad(clk, "attributed total %v != power.ActiveEnergy %v", a.TotalJ, want)
		}
		if res := byConfig[clk.Name]; res != nil {
			checks++
			if a.TotalJ != res.TrueEnergy {
				bad(clk, "attributed total %v != stored TrueEnergy %v", a.TotalJ, res.TrueEnergy)
			}
		}
	}
	return vs, checks, nil
}

// calibRun is one attributed microbenchmark execution at the baseline
// configuration: the single launch's stats plus the launch-level pricing
// factors the calibration identities divide back out.
type calibRun struct {
	launch *sim.Launch
	vec    power.ClassVec
	// norm is EnergyScale x launch scale x repeat — the class-independent
	// factors; core classes additionally carry v2.
	norm, v2 float64
}

// calibrate simulates one (microbenchmark, input) at clk and returns the
// attributed single launch. A microbenchmark with any other launch shape, or
// whose launch fails trace's accounting checks, is itself a violation (vr
// non-nil).
func calibrate(ctx context.Context, r *core.Runner, p core.Program, input string, clk kepler.Clocks) (*calibRun, *Violation, error) {
	dev, err := r.SimulatedDevice(ctx, p, input, clk)
	if err != nil {
		return nil, nil, fmt.Errorf("check: calibration %s/%s@%s: %w", p.Name(), input, clk.Name, err)
	}
	bad := func(format string, args ...any) (*calibRun, *Violation, error) {
		return nil, &Violation{
			Invariant: "calibration",
			Program:   p.Name(), Input: input, Config: clk.Name,
			Detail: fmt.Sprintf(format, args...),
		}, nil
	}
	if len(dev.Launches) != 1 {
		return bad("microbenchmark recorded %d launches, want exactly 1", len(dev.Launches))
	}
	l := dev.Launches[0]
	if err := l.Stats.CheckAccounting(); err != nil {
		return bad("launch %s#%d: %v", l.Name, l.Seq, err)
	}
	d := clk.Device()
	v := clk.VoltageV / d.Power.RefVoltageV
	return &calibRun{
		launch: l,
		vec:    power.AttributeLaunch(clk, l),
		norm:   d.Power.EnergyScale * l.Scale * float64(l.Repeat),
		v2:     v * v,
	}, nil, nil
}

// relErr returns |got/want - 1| (Inf when want is 0 and got is not).
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got/want - 1)
}

// checkCalibration asserts each microbenchmark's EnergyTable-pinning
// invariant on the swept device at its baseline configuration:
//
//   - MB-PCHASE: every dependent load is exactly one coalesced transaction,
//     the ldst class recovers ldstJ, and the l1/l2/dram working sets charge
//     bit-identical energy (the model's memory hierarchy is energy-flat —
//     locality moves time, never joules);
//   - MB-STRIDE: doubling the stride doubles GlobalTxns exactly and leaves
//     every compute-class energy bit-identical, coalescing efficiency is
//     exactly 1/stride, and the dram class recovers txnJ through the
//     model's row-locality inflation;
//   - MB-FMA: zero memory traffic (dram and ldst classes exactly 0), the
//     fp32 class recovers fp32J, and doubling the chain doubles the fp32
//     count and its fp32 energy exactly.
func checkCalibration(ctx context.Context, r *core.Runner, dev *kepler.Device, st *Stats) ([]Violation, int, error) {
	clk := dev.Configurations()[0] // baseline: ECC off on every shipped ladder
	t := dev.Energy
	var vs []Violation
	checks := 0
	bad := func(p, input, format string, args ...any) {
		vs = append(vs, Violation{
			Invariant: "calibration",
			Program:   p, Input: input, Config: clk.Name,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	entry := func(p, input, name string, got, want float64) {
		checks++
		err := relErr(got, want)
		st.MaxCalibErr = math.Max(st.MaxCalibErr, err)
		if !(err <= calibEntryTol) {
			bad(p, input, "recovered %s %.9e, table %.9e (rel err %.3e)", name, got, want, err)
		}
	}
	runs := make(map[string]map[string]*calibRun)
	for _, p := range microbench.Programs() {
		byInput := make(map[string]*calibRun, len(p.Inputs()))
		runs[p.Name()] = byInput
		for _, input := range p.Inputs() {
			cr, vr, err := calibrate(ctx, r, p, input, clk)
			if err != nil {
				return nil, checks, err
			}
			checks++
			if vr != nil {
				vs = append(vs, *vr)
				continue
			}
			byInput[input] = cr
		}
	}

	// MB-PCHASE: one transaction per dependent load, perfect coalescing,
	// ldstJ recovery, and working-set independence of every class energy.
	var ref *calibRun
	refInput := ""
	for _, input := range []string{"l1", "l2", "dram"} {
		cr := runs["MB-PCHASE"][input]
		if cr == nil {
			continue
		}
		s := &cr.launch.Stats
		checks++
		if s.GlobalTxns != s.LoadSlots {
			bad("MB-PCHASE", input, "GlobalTxns %d != LoadSlots %d (a dependent load must be one transaction)", s.GlobalTxns, s.LoadSlots)
		}
		checks++
		if eff := s.CoalescingEfficiency(); eff != 1 {
			bad("MB-PCHASE", input, "coalescing efficiency %g, want exactly 1", eff)
		}
		checks++
		if dr := s.DivergenceRatio(); dr > 1 {
			bad("MB-PCHASE", input, "divergence ratio %g, want 1 (uniform warp)", dr)
		}
		entry("MB-PCHASE", input, "ldstJ",
			cr.vec[power.ClassLDST]/(float64(s.LoadSlots+s.StoreSlots)*cr.v2*cr.norm), t.LDSTJ)
		if ref == nil {
			ref, refInput = cr, input
			continue
		}
		checks++
		if cr.vec != ref.vec {
			bad("MB-PCHASE", input, "class energies differ from %s working set (%v vs %v): the energy model's hierarchy must be flat", refInput, cr.vec, ref.vec)
		}
	}

	// MB-STRIDE: exact transaction doubling, exact 1/stride coalescing,
	// compute classes independent of stride, txnJ recovery through the
	// row-locality inflation.
	var prev *calibRun
	prevInput := ""
	for _, input := range []string{"s1", "s2", "s4", "s8"} {
		cr := runs["MB-STRIDE"][input]
		if cr == nil {
			continue
		}
		stride, _ := strconv.Atoi(strings.TrimPrefix(input, "s"))
		s := &cr.launch.Stats
		eff := s.CoalescingEfficiency()
		checks++
		if want := 1 / float64(stride); eff != want {
			bad("MB-STRIDE", input, "coalescing efficiency %g, want exactly %g", eff, want)
		}
		effTxns := float64(s.GlobalTxns) * (1 + 0.9*(1-eff))
		entry("MB-STRIDE", input, "txnJ", cr.vec[power.ClassDRAM]/(effTxns*cr.norm), t.TxnJ)
		if prev != nil {
			ps := &prev.launch.Stats
			checks++
			if s.GlobalTxns != 2*ps.GlobalTxns {
				bad("MB-STRIDE", input, "GlobalTxns %d, want exactly 2x %s's %d", s.GlobalTxns, prevInput, ps.GlobalTxns)
			}
			checks++
			if s.IntInsts != ps.IntInsts || s.FP32Insts != ps.FP32Insts ||
				cr.vec[power.ClassInt] != prev.vec[power.ClassInt] ||
				cr.vec[power.ClassFP32] != prev.vec[power.ClassFP32] {
				bad("MB-STRIDE", input, "compute counts/energies changed with stride (int %d/%v vs %d/%v, fp32 %d/%v vs %d/%v)",
					s.IntInsts, cr.vec[power.ClassInt], ps.IntInsts, prev.vec[power.ClassInt],
					s.FP32Insts, cr.vec[power.ClassFP32], ps.FP32Insts, prev.vec[power.ClassFP32])
			}
		}
		prev, prevInput = cr, input
	}

	// MB-FMA: no memory traffic, fp32J recovery, exact chain doubling.
	one := runs["MB-FMA"]["1x"]
	two := runs["MB-FMA"]["2x"]
	for input, cr := range map[string]*calibRun{"1x": one, "2x": two} {
		if cr == nil {
			continue
		}
		s := &cr.launch.Stats
		checks++
		if s.GlobalTxns != 0 || s.LoadSlots != 0 || s.StoreSlots != 0 ||
			cr.vec[power.ClassDRAM] != 0 || cr.vec[power.ClassLDST] != 0 {
			bad("MB-FMA", input, "memory traffic on a register-resident chain: txns %d, ld %d, st %d, dramJ %v, ldstJ %v",
				s.GlobalTxns, s.LoadSlots, s.StoreSlots, cr.vec[power.ClassDRAM], cr.vec[power.ClassLDST])
		}
		entry("MB-FMA", input, "fp32J",
			cr.vec[power.ClassFP32]/(float64(s.FP32Insts)*cr.v2*cr.norm), t.FP32J)
	}
	if one != nil && two != nil {
		checks++
		if two.launch.Stats.FP32Insts != 2*one.launch.Stats.FP32Insts {
			bad("MB-FMA", "2x", "FP32Insts %d, want exactly 2x 1x's %d", two.launch.Stats.FP32Insts, one.launch.Stats.FP32Insts)
		}
		checks++
		if two.vec[power.ClassFP32] != 2*one.vec[power.ClassFP32] {
			bad("MB-FMA", "2x", "fp32 energy %v, want exactly 2x 1x's %v", two.vec[power.ClassFP32], one.vec[power.ClassFP32])
		}
	}
	return vs, checks, nil
}
