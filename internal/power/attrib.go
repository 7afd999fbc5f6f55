// Instruction-level energy attribution: report each launch's dynamic energy
// by instruction class. The classes are the ones classEnergies prices for
// LaunchEnergy, so they sum to the dynamic energy the run-level model
// charges by construction. Attribution is a pure post-processing pass over a
// completed (or replayed) device: it performs zero simulation and invents no
// new physics.
package power

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/kepler"
	"repro/internal/sim"
)

// Class is one instruction-energy attribution class. The seven core-side
// classes carry the V² voltage scaling and the divergence surcharge; the
// two memory-side classes (dram, atomic) do not (see classEnergies).
type Class int

const (
	ClassInt Class = iota
	ClassFP32
	ClassFP64
	ClassSFU
	ClassShared
	ClassLDST
	ClassSync
	ClassDRAM
	ClassAtomic
	// NumClasses is the number of attribution classes.
	NumClasses = int(ClassAtomic) + 1
)

var classNames = [NumClasses]string{
	"int", "fp32", "fp64", "sfu", "shared", "ldst", "sync", "dram", "atomic",
}

func (c Class) String() string {
	if c < 0 || int(c) >= NumClasses {
		return "class(" + strconv.Itoa(int(c)) + ")"
	}
	return classNames[c]
}

// ClassVec is one energy per attribution class, in joules.
type ClassVec [NumClasses]float64

// Total sums the classes left to right in class order. A launch's dynamic
// energy is defined as this sum over its classEnergies.
func (v ClassVec) Total() float64 {
	var t float64
	for _, e := range v {
		t += e
	}
	return t
}

// AddVec accumulates o into v class by class.
func (v *ClassVec) AddVec(o ClassVec) {
	for i := range v {
		v[i] += o[i]
	}
}

// MarshalJSON emits the vector as an object keyed by class name, in class
// order.
func (v ClassVec) MarshalJSON() ([]byte, error) {
	buf := []byte{'{'}
	for i, e := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, classNames[i]...)
		buf = append(buf, '"', ':')
		num, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		buf = append(buf, num...)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON reverses MarshalJSON, rejecting unknown class names.
func (v *ClassVec) UnmarshalJSON(data []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for name, e := range m {
		found := false
		for i, cn := range classNames {
			if cn == name {
				v[i] = e
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("power: unknown attribution class %q", name)
		}
	}
	return nil
}

// AttributeLaunch returns the per-class dynamic energy one launch record
// charges the run: each class of one execution, times the launch's timing
// scale and repeat count.
func AttributeLaunch(clk kepler.Clocks, l *sim.Launch) ClassVec {
	return launchClasses(classEnergies(clk, &l.Stats), l)
}

// launchClasses scales the class energies of one execution to the whole
// launch record: its timing scale and repeat count.
func launchClasses(vec ClassVec, l *sim.Launch) ClassVec {
	k := l.Scale * float64(l.Repeat)
	for c := range vec {
		vec[c] *= k
	}
	return vec
}

// LaunchAttribution is one launch record's energy breakdown.
type LaunchAttribution struct {
	Kernel    string   `json:"kernel"`
	Seq       int      `json:"seq"`
	Repeat    int      `json:"repeat"`
	DurationS float64  `json:"durationS"` // per execution, before repeats
	Classes   ClassVec `json:"classes"`
	DynamicJ  float64  `json:"dynamicJ"` // Classes.Total()
	StaticJ   float64  `json:"staticJ"`  // TotalJ - DynamicJ (display split)
	TotalJ    float64  `json:"totalJ"`   // LaunchEnergy * Repeat
}

// KernelAttribution aggregates a kernel's launches (display rollup; the
// bit-exact statements live on the launch records and the run totals).
type KernelAttribution struct {
	Kernel     string   `json:"kernel"`
	Launches   int      `json:"launches"`   // launch records
	Executions int64    `json:"executions"` // Σ repeats
	Classes    ClassVec `json:"classes"`
	DynamicJ   float64  `json:"dynamicJ"`
	StaticJ    float64  `json:"staticJ"`
	TotalJ     float64  `json:"totalJ"`
}

// Attribution is a full run's instruction-level energy breakdown.
//
// Every class energy is non-negative, and TotalJ == ActiveEnergy(dev) ==
// the stored Result.TrueEnergy bit-exactly (both checked by internal/check
// for every program × config × device). Each launch's DynamicJ is its
// Classes.Total(); StaticJ and the kernel rollups are display
// decompositions derived from those quantities.
type Attribution struct {
	Device   string              `json:"device"`
	Config   string              `json:"config"`
	Launches []LaunchAttribution `json:"launches"`
	Kernels  []KernelAttribution `json:"kernels"` // in order of first launch
	Classes  ClassVec            `json:"classes"` // run-level rollup
	DynamicJ float64             `json:"dynamicJ"`
	StaticJ  float64             `json:"staticJ"`
	TotalJ   float64             `json:"totalJ"`
}

// Attribute decomposes a completed (or replayed) device run. Launch order
// is preserved, and each launch is priced once (priceLaunches), so TotalJ
// is the very sum ActiveEnergy returns.
func Attribute(dev *sim.Device) *Attribution {
	clk := dev.Clocks
	a := &Attribution{
		Device:   clk.Device().Name,
		Config:   clk.Name,
		Launches: make([]LaunchAttribution, 0, len(dev.Launches)),
	}
	kernelIdx := make(map[string]int)
	a.TotalJ = priceLaunches(dev, func(l *sim.Launch, classes ClassVec, exec float64) {
		vec := launchClasses(classes, l)
		dyn := vec.Total()
		tot := exec * float64(l.Repeat)
		la := LaunchAttribution{
			Kernel:    l.Name,
			Seq:       l.Seq,
			Repeat:    l.Repeat,
			DurationS: l.Duration,
			Classes:   vec,
			DynamicJ:  dyn,
			StaticJ:   tot - dyn,
			TotalJ:    tot,
		}
		a.Launches = append(a.Launches, la)
		a.DynamicJ += dyn
		a.Classes.AddVec(vec)

		ki, ok := kernelIdx[l.Name]
		if !ok {
			ki = len(a.Kernels)
			kernelIdx[l.Name] = ki
			a.Kernels = append(a.Kernels, KernelAttribution{Kernel: l.Name})
		}
		k := &a.Kernels[ki]
		k.Launches++
		k.Executions += int64(l.Repeat)
		k.Classes.AddVec(vec)
		k.DynamicJ += dyn
		k.StaticJ += la.StaticJ
		k.TotalJ += tot
	})
	a.StaticJ = a.TotalJ - a.DynamicJ
	return a
}
