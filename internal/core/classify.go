package core

import (
	"context"
	"sort"

	"repro/internal/kepler"
)

// Class is a program's measured behavioural classification, the basis of
// the paper's section VI recommendations for selecting benchmark subsets.
type Class struct {
	Program string
	Suite   Suite

	// CoreSensitivity is the runtime increase at the 614 configuration
	// relative to the ~13% core-clock reduction (1 = scales fully with the
	// core clock, 0 = insensitive). Values outside [0,1] happen on
	// irregular codes whose timing-dependent behaviour over- or
	// under-shoots.
	CoreSensitivity float64
	// MemSensitivity is the extra slowdown at 324 beyond the core share
	// (driven by the 8x memory-clock drop), normalized so that ~1 means
	// fully memory bound.
	MemSensitivity float64
	// ECCSlowdown is tECC/tdefault - 1.
	ECCSlowdown float64
	// AvgPowerW is the absolute default-configuration power.
	AvgPowerW float64
	// Irregular is the program's declared control-flow character.
	Irregular bool
	// Kind is the derived label: "compute-bound", "memory-bound" or
	// "balanced".
	Kind string
	// Measurable324 reports whether the program yields enough power samples
	// at the 324 MHz configuration.
	Measurable324 bool
}

// CoreSensitivity is a program's core-clock sensitivity on a device with
// canonical configurations cfgs: the runtime increase from the default
// (defTime) to the 614-role clock (f614Time), relative to the core-clock
// drop between them (~0.148 on the K20c).
func CoreSensitivity(cfgs []kepler.Clocks, defTime, f614Time float64) float64 {
	freqDrop := float64(cfgs[0].CoreMHz)/float64(cfgs[1].CoreMHz) - 1
	return (f614Time/defTime - 1) / freqDrop
}

// Classify measures each program at the device's four canonical
// configurations and derives its behavioural class. Programs that cannot be
// measured at the default configuration are skipped. A nil dev selects the
// paper's K20c.
func Classify(ctx context.Context, r *Runner, programs []Program, dev *kepler.Device) ([]Class, error) {
	cfgs := deviceOrK20c(dev).Configurations()
	cDef, c324 := cfgs[0], cfgs[2]
	results, err := r.MeasureEach(ctx, EnumerateCombos(programs, cfgs, false))
	if err != nil {
		return nil, err
	}
	var out []Class
	for i, p := range programs {
		def, f614, f324, ecc := results[4*i], results[4*i+1], results[4*i+2], results[4*i+3]
		if def == nil {
			continue
		}
		c := Class{
			Program:   p.Name(),
			Suite:     p.Suite(),
			AvgPowerW: def.AvgPower,
			Irregular: p.Irregular(),
		}
		if f614 != nil {
			c.CoreSensitivity = CoreSensitivity(cfgs, def.ActiveTime, f614.ActiveTime)
		}
		if f324 != nil {
			c.Measurable324 = true
			// Total 324-analogue slowdown, minus what the core clock alone
			// explains.
			coreShare := 1 + c.CoreSensitivity*(float64(cDef.CoreMHz)/float64(c324.CoreMHz)-1)
			total := f324.ActiveTime / def.ActiveTime
			c.MemSensitivity = (total - coreShare) / (float64(cDef.MemMHz)/float64(c324.MemMHz) - 1) * 2
		}
		if ecc != nil {
			c.ECCSlowdown = ecc.ActiveTime/def.ActiveTime - 1
		}

		// Label: the 614 response separates compute- from memory-bound
		// (paper V.A.1); ECC sensitivity corroborates.
		switch {
		case c.CoreSensitivity >= 0.6 && c.ECCSlowdown < 0.05:
			c.Kind = "compute-bound"
		case c.CoreSensitivity < 0.35 || c.ECCSlowdown >= 0.08:
			c.Kind = "memory-bound"
		default:
			c.Kind = "balanced"
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Program < out[j].Program
	})
	return out, nil
}

// Recommendation is a suggested benchmark subset per the paper's section VI
// guidelines, with the reason each program was picked.
type Recommendation struct {
	Program string
	Suite   Suite
	Reason  string
}

// RecommendSubset applies the paper's guidelines to the classification:
// measure a broad spectrum (compute- and memory-bound, regular and
// irregular), prefer non-topology-driven irregular codes, draw from
// multiple suites, and prefer programs measurable at every configuration.
func RecommendSubset(classes []Class) []Recommendation {
	// The topology-driven graph codes the paper advises against.
	topologyDriven := map[string]bool{"L-BFS": true, "SSSP": true, "NSP": true}

	pick := func(want func(Class) bool, reason string, taken map[string]bool) *Recommendation {
		var best *Class
		for i := range classes {
			c := &classes[i]
			if taken[c.Program] || !want(*c) {
				continue
			}
			// Prefer programs measurable everywhere, then higher power
			// (clearer sensor signal).
			if best == nil ||
				(c.Measurable324 && !best.Measurable324) ||
				(c.Measurable324 == best.Measurable324 && c.AvgPowerW > best.AvgPowerW) {
				best = c
			}
		}
		if best == nil {
			return nil
		}
		taken[best.Program] = true
		return &Recommendation{Program: best.Program, Suite: best.Suite, Reason: reason}
	}

	taken := map[string]bool{}
	var recs []Recommendation
	wants := []struct {
		f      func(Class) bool
		reason string
	}{
		{func(c Class) bool { return c.Kind == "compute-bound" && !c.Irregular },
			"regular compute-bound (core-clock sensitive, ECC immune)"},
		{func(c Class) bool { return c.Kind == "memory-bound" && !c.Irregular },
			"regular memory-bound (memory-clock and ECC sensitive)"},
		{func(c Class) bool { return c.Irregular && !topologyDriven[c.Program] },
			"irregular, not topology-driven (timing-dependent behaviour)"},
		{func(c Class) bool { return c.Kind == "balanced" },
			"balanced compute/memory mix"},
		{func(c Class) bool { return c.Irregular && !topologyDriven[c.Program] },
			"second irregular code from a different suite"},
	}
	for _, w := range wants {
		if rec := pick(w.f, w.reason, taken); rec != nil {
			recs = append(recs, *rec)
		}
	}
	return recs
}
