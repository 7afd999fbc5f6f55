package kepler

import (
	"embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The device-description backend.
//
// Everything the simulator knows about a GPU — SM geometry, functional-unit
// throughputs, the memory hierarchy, the ECC/power/sensor models and the
// DVFS clock/voltage tables — lives in a Device value loaded from an
// embedded, validated JSON file under devices/. The timing and power models
// are code; the numbers they run on are data, so adding a board is adding a
// file, not editing formulas. K20cDevice() is the canonical instance: the
// paper's Tesla K20c, whose values the golden corpus is pinned to.

// RateTable holds the per-SM issue throughputs in warp instructions per core
// clock, one per functional-unit class.
type RateTable struct {
	// Issue is the total dual-issue slot throughput across the schedulers.
	Issue float64 `json:"issue"`
	// FP32, FP64, Int, SFU and LDST are the per-class throughputs
	// (units per SM divided by the warp width).
	FP32 float64 `json:"fp32"`
	FP64 float64 `json:"fp64"`
	Int  float64 `json:"int"`
	SFU  float64 `json:"sfu"`
	LDST float64 `json:"ldst"`
}

// EnergyTable holds the per-event energies the power model prices a
// kernel's warp-instruction counts with: joules per warp instruction (or
// per DRAM transaction / shared-memory cycle) at the reference voltage,
// before the device's EnergyScale and the configuration's V² scaling. One
// entry per attribution class; the calibration microbenchmark suite pins
// each entry to an observable invariant (see internal/check).
type EnergyTable struct {
	// Per-warp-instruction energies of the core-side classes.
	IntJ    float64 `json:"intJ"`
	FP32J   float64 `json:"fp32J"`
	FP64J   float64 `json:"fp64J"`
	SFUJ    float64 `json:"sfuJ"`
	SharedJ float64 `json:"sharedJ"` // per shared-memory cycle
	LDSTJ   float64 `json:"ldstJ"`   // per load/store issue slot
	SyncJ   float64 `json:"syncJ"`   // per __syncthreads
	// Memory-side energies: per 128-byte DRAM transaction and per atomic.
	TxnJ    float64 `json:"txnJ"`
	AtomicJ float64 `json:"atomicJ"`
	// DivergenceFactor is the fractional core-energy overhead per unit of
	// divergence ratio above 1 (replayed instruction slots burn front-end
	// energy without retiring useful lanes).
	DivergenceFactor float64 `json:"divergenceFactor"`
}

// ECCModel describes how enabling ECC perturbs the memory system.
type ECCModel struct {
	// CapacityLoss is the fraction of DRAM set aside for ECC information
	// (also the bus-bandwidth share the ECC words consume).
	CapacityLoss float64 `json:"capacityLoss"`
	// LatencyFactor multiplies the DRAM access latency when ECC is on.
	LatencyFactor float64 `json:"latencyFactor"`
	// BandwidthPenalty scales the extra transaction inflation of scattered
	// (uncoalesced) access streams, which amortize ECC words poorly.
	BandwidthPenalty float64 `json:"bandwidthPenalty"`
	// EnergyFactor multiplies per-transaction DRAM energy when ECC is on.
	EnergyFactor float64 `json:"energyFactor"`
	// CheckEnergyJ is the controller-side check/correct energy per
	// transaction in joules.
	CheckEnergyJ float64 `json:"checkEnergyJ"`
}

// PowerModel holds the board's static/idle power parameters and the scale
// factors relating it to the reference per-event energies.
type PowerModel struct {
	// RefVoltageV is the core voltage the per-event energies are quoted at;
	// dynamic energy scales with (V/RefVoltageV)².
	RefVoltageV float64 `json:"refVoltageV"`
	// BoardStaticW is the configuration-independent active board power
	// (fan, VRM losses, DRAM refresh).
	BoardStaticW float64 `json:"boardStaticW"`
	// LeakageRefW is the voltage- and clock-dependent static share at the
	// reference voltage and default core clock.
	LeakageRefW float64 `json:"leakageRefW"`
	// IdleW is the driver-idle power.
	IdleW float64 `json:"idleW"`
	// IdleScale and StaticScale adjust the power floors relative to the
	// board family's reference part (bigger boards burn more).
	IdleScale   float64 `json:"idleScale"`
	StaticScale float64 `json:"staticScale"`
	// EnergyScale multiplies the reference per-event energies: process
	// shrinks and low-power parts spend less per instruction.
	EnergyScale float64 `json:"energyScale"`
}

// SensorModel describes the board's power-sensor behaviour (the K20c's
// on-board sensor is the reference the measurement methodology targets).
type SensorModel struct {
	// SwitchW is the power level above which the driver samples at 10 Hz
	// instead of 1 Hz.
	SwitchW float64 `json:"switchW"`
	// NoiseSigmaW is the Gaussian sampling noise.
	NoiseSigmaW float64 `json:"noiseSigmaW"`
	// DriftAmpW is the slow (thermal) drift amplitude.
	DriftAmpW float64 `json:"driftAmpW"`
}

// Device is the full description of one simulated GPU. Values are loaded
// from the embedded data files under devices/, whose schema is this
// struct's JSON tags plus the "canonical" list (see ParseDevice), and
// validated; the timing, power and sensor models read every architectural
// number from here.
type Device struct {
	// Name identifies the device ("K20c", "GTX1080", ...). It keys the
	// measurement cache, the result store and captured launch traces.
	Name string `json:"name"`
	// Class is the architecture family ("Kepler", "Pascal", "Jetson").
	Class string `json:"class"`

	// SM geometry.
	SMs                int `json:"sms"`                // streaming multiprocessors
	PEsPerSM           int `json:"pesPerSM"`           // processing elements (CUDA cores) per SM
	SchedulersPerSM    int `json:"schedulersPerSM"`    // warp schedulers per SM
	MaxThreadsPerSM    int `json:"maxThreadsPerSM"`    // resident-thread bound per SM
	MaxBlocksPerSM     int `json:"maxBlocksPerSM"`     // resident-block bound per SM
	MaxThreadsPerBlock int `json:"maxThreadsPerBlock"` // block-size bound
	SharedMemPerSM     int `json:"sharedMemPerSM"`     // shared-memory bytes per SM
	SharedBanks        int `json:"sharedBanks"`        // shared-memory banks

	// Memory hierarchy.
	SegmentBytes          int   `json:"segmentBytes"`          // coalescing segment size in bytes
	DRAMBytes             int64 `json:"dramBytes"`             // global-memory capacity
	BusBytesPerMemClock   int   `json:"busBytesPerMemClock"`   // DRAM bus width per effective memory clock
	DRAMLatencyMemClocks  int   `json:"dramLatencyMemClocks"`  // DRAM access latency in memory clocks
	MaxOutstandingPerWarp int   `json:"maxOutstandingPerWarp"` // memory-level parallelism per warp

	// DefaultCoreMHz and DefaultMemMHz are the board's default application
	// clocks (the static-power model's frequency reference).
	DefaultCoreMHz int `json:"defaultCoreMHz"`
	DefaultMemMHz  int `json:"defaultMemMHz"`

	Rates  RateTable   `json:"rates"`
	ECC    ECCModel    `json:"ecc"`
	Energy EnergyTable `json:"energy"`
	Power  PowerModel  `json:"power"`
	Sensor SensorModel `json:"sensor"`

	// Settings lists the board's application-clock settings; sorted by core
	// clock they form the DVFS voltage ladder VoltageFor interpolates.
	Settings []Clocks `json:"settings"`

	// canonical holds the board's analogues of the paper's four evaluated
	// configurations, in the paper's order and under the role names
	// "default", "614", "324", "ecc" (the names are roles: the K40's "614"
	// configuration runs at 648 MHz).
	canonical []Clocks

	// GridSpec is the board's dense-DVFS-grid bounds (see Grid).
	GridSpec GridSpec `json:"grid"`

	// ladder is Settings reduced to ascending (coreMHz, volts) rungs.
	ladder []ladderRung
}

type ladderRung struct {
	mhz int
	v   float64
}

// canonicalRoles are the required role names of a device's canonical
// configurations, in the paper's order.
var canonicalRoles = [numCanonicalConfigs]string{"default", "614", "324", "ecc"}

//go:embed devices/*.json
var deviceFS embed.FS

var (
	loadOnce   sync.Once
	registry   map[string]*Device // lower-cased name -> device
	allDevices []*Device          // K20c first, then the rest by name
	k20c       *Device            // registry entry of the canonical device
)

// ParseDevice decodes and validates one device description. It is the
// loader the embedded files go through, exported so tests (including the
// loader fuzz test) can feed it arbitrary bytes; it never panics on bad
// input.
func ParseDevice(data []byte) (*Device, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	d := &Device{}
	// The file is the Device's own fields plus the canonical list, which
	// Device keeps unexported.
	f := struct {
		*Device
		Canonical []Clocks `json:"canonical"`
	}{Device: d}
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("kepler: device file: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil {
		return nil, fmt.Errorf("kepler: device file: trailing data after device object")
	}
	d.canonical = f.Canonical
	// The paper's K20c stays the zero device on its Clocks values so that
	// every package-level configuration compares (and hashes) exactly as
	// before the device backend existed.
	for _, cs := range [][]Clocks{d.Settings, d.canonical} {
		for i := range cs {
			cs[i].dev = d.ref()
		}
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// ref returns the pointer non-K20c Clocks values carry; the K20c itself is
// represented by nil so its configurations stay comparable with the
// package-level values that predate the device backend.
func (d *Device) ref() *Device {
	if d.Name == k20cName {
		return nil
	}
	return d
}

const k20cName = "K20c"

// validate checks the loaded description for internal consistency,
// reporting every class of defect with a device-prefixed error.
func (d *Device) validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("kepler: device %q: %s", d.Name, fmt.Sprintf(format, args...))
	}
	if d.Name == "" {
		return fmt.Errorf("kepler: device file has no name")
	}
	if d.Class == "" {
		return fail("missing class")
	}
	geometry := []struct {
		name string
		v    int64
	}{
		{"sms", int64(d.SMs)},
		{"pesPerSM", int64(d.PEsPerSM)},
		{"schedulersPerSM", int64(d.SchedulersPerSM)},
		{"maxThreadsPerSM", int64(d.MaxThreadsPerSM)},
		{"maxBlocksPerSM", int64(d.MaxBlocksPerSM)},
		{"maxThreadsPerBlock", int64(d.MaxThreadsPerBlock)},
		{"sharedMemPerSM", int64(d.SharedMemPerSM)},
		{"sharedBanks", int64(d.SharedBanks)},
		{"segmentBytes", int64(d.SegmentBytes)},
		{"dramBytes", d.DRAMBytes},
		{"busBytesPerMemClock", int64(d.BusBytesPerMemClock)},
		{"dramLatencyMemClocks", int64(d.DRAMLatencyMemClocks)},
		{"maxOutstandingPerWarp", int64(d.MaxOutstandingPerWarp)},
		{"defaultCoreMHz", int64(d.DefaultCoreMHz)},
		{"defaultMemMHz", int64(d.DefaultMemMHz)},
	}
	for _, g := range geometry {
		if g.v <= 0 {
			return fail("geometry %s must be positive (got %d)", g.name, g.v)
		}
	}
	if d.MaxThreadsPerSM < WarpSize || d.MaxThreadsPerSM%WarpSize != 0 {
		return fail("maxThreadsPerSM %d is not a positive multiple of the warp size", d.MaxThreadsPerSM)
	}
	if d.MaxThreadsPerBlock > d.MaxThreadsPerSM {
		return fail("maxThreadsPerBlock %d exceeds maxThreadsPerSM %d", d.MaxThreadsPerBlock, d.MaxThreadsPerSM)
	}
	rates := []struct {
		name string
		v    float64
	}{
		{"issue", d.Rates.Issue}, {"fp32", d.Rates.FP32}, {"fp64", d.Rates.FP64},
		{"int", d.Rates.Int}, {"sfu", d.Rates.SFU}, {"ldst", d.Rates.LDST},
	}
	for _, r := range rates {
		if !(r.v > 0) {
			return fail("rate %s must be positive (got %g)", r.name, r.v)
		}
	}
	if !(d.ECC.CapacityLoss >= 0 && d.ECC.CapacityLoss < 1) {
		return fail("ecc capacityLoss %g outside [0,1)", d.ECC.CapacityLoss)
	}
	if !(d.ECC.LatencyFactor >= 1) {
		return fail("ecc latencyFactor %g below 1", d.ECC.LatencyFactor)
	}
	if !(d.ECC.BandwidthPenalty >= 0) {
		return fail("ecc bandwidthPenalty %g negative", d.ECC.BandwidthPenalty)
	}
	if !(d.ECC.EnergyFactor >= 1) {
		return fail("ecc energyFactor %g below 1", d.ECC.EnergyFactor)
	}
	if !(d.ECC.CheckEnergyJ >= 0) {
		return fail("ecc checkEnergyJ %g negative", d.ECC.CheckEnergyJ)
	}
	energies := []struct {
		name string
		v    float64
	}{
		{"intJ", d.Energy.IntJ}, {"fp32J", d.Energy.FP32J}, {"fp64J", d.Energy.FP64J},
		{"sfuJ", d.Energy.SFUJ}, {"sharedJ", d.Energy.SharedJ}, {"ldstJ", d.Energy.LDSTJ},
		{"syncJ", d.Energy.SyncJ}, {"txnJ", d.Energy.TxnJ}, {"atomicJ", d.Energy.AtomicJ},
	}
	for _, e := range energies {
		if !(e.v > 0) {
			return fail("energy %s must be positive (got %g)", e.name, e.v)
		}
	}
	if !(d.Energy.DivergenceFactor >= 0) {
		return fail("energy divergenceFactor %g negative", d.Energy.DivergenceFactor)
	}
	if d.Power.RefVoltageV < 0.5 || d.Power.RefVoltageV > 1.5 {
		return fail("power refVoltageV %g implausible", d.Power.RefVoltageV)
	}
	if !(d.Power.BoardStaticW >= 0) || !(d.Power.LeakageRefW >= 0) || !(d.Power.IdleW >= 0) {
		return fail("power floors must be non-negative")
	}
	if !(d.Power.IdleScale > 0) || !(d.Power.StaticScale > 0) || !(d.Power.EnergyScale > 0) {
		return fail("power scales must be positive")
	}
	if !(d.Sensor.SwitchW > 0) {
		return fail("sensor switchW must be positive (got %g)", d.Sensor.SwitchW)
	}
	if !(d.Sensor.NoiseSigmaW >= 0) || !(d.Sensor.DriftAmpW >= 0) {
		return fail("sensor noise terms must be non-negative")
	}

	// Settings and the voltage ladder they imply.
	if len(d.Settings) == 0 {
		return fail("no application-clock settings")
	}
	names := make(map[string]bool)
	for _, c := range d.Settings {
		if err := c.Validate(); err != nil {
			return fail("setting: %v", err)
		}
		if c.ECC {
			return fail("setting %s: ladder settings must have ECC off", c.Name)
		}
		if names[c.Name] {
			return fail("duplicate setting name %q", c.Name)
		}
		names[c.Name] = true
	}
	rungs := make([]ladderRung, len(d.Settings))
	for i, c := range d.Settings {
		rungs[i] = ladderRung{mhz: c.CoreMHz, v: c.VoltageV}
	}
	sort.Slice(rungs, func(i, j int) bool { return rungs[i].mhz < rungs[j].mhz })
	for i := 1; i < len(rungs); i++ {
		if rungs[i].mhz == rungs[i-1].mhz {
			return fail("duplicate ladder rung at %d MHz", rungs[i].mhz)
		}
		if rungs[i].v < rungs[i-1].v {
			return fail("non-monotone voltage ladder: %d MHz pairs %g V below %d MHz at %g V",
				rungs[i].mhz, rungs[i].v, rungs[i-1].mhz, rungs[i-1].v)
		}
	}
	d.ladder = rungs

	// Canonical configurations: exactly the four roles, in order.
	if len(d.canonical) != numCanonicalConfigs {
		return fail("need the %d canonical configurations %v (got %d)",
			numCanonicalConfigs, canonicalRoles, len(d.canonical))
	}
	for i, c := range d.canonical {
		if c.Name != canonicalRoles[i] {
			return fail("canonical configuration %d must be role %q (missing canonical config; got %q)",
				i, canonicalRoles[i], c.Name)
		}
		if err := c.Validate(); err != nil {
			return fail("canonical: %v", err)
		}
		if wantECC := c.Name == "ecc"; c.ECC != wantECC {
			return fail("canonical %q must have ecc=%v", c.Name, wantECC)
		}
	}
	if def := d.canonical[0]; def.CoreMHz != d.DefaultCoreMHz || def.MemMHz != d.DefaultMemMHz {
		return fail("canonical default %d/%d MHz disagrees with defaultCoreMHz/defaultMemMHz %d/%d",
			def.CoreMHz, def.MemMHz, d.DefaultCoreMHz, d.DefaultMemMHz)
	}
	if err := d.GridSpec.Validate(); err != nil {
		return fail("grid: %v", err)
	}
	return nil
}

// loadDevices parses every embedded device file exactly once. The embedded
// files are part of the build, so a defect is a programmer error: panic.
func loadDevices() {
	loadOnce.Do(func() {
		entries, err := deviceFS.ReadDir("devices")
		if err != nil {
			panic(fmt.Sprintf("kepler: embedded device files: %v", err))
		}
		registry = make(map[string]*Device, len(entries))
		for _, e := range entries {
			data, err := deviceFS.ReadFile("devices/" + e.Name())
			if err != nil {
				panic(fmt.Sprintf("kepler: embedded device file %s: %v", e.Name(), err))
			}
			d, err := ParseDevice(data)
			if err != nil {
				panic(fmt.Sprintf("kepler: embedded device file %s: %v", e.Name(), err))
			}
			key := strings.ToLower(d.Name)
			if registry[key] != nil {
				panic(fmt.Sprintf("kepler: duplicate device %q", d.Name))
			}
			registry[key] = d
			allDevices = append(allDevices, d)
		}
		k20c = registry[strings.ToLower(k20cName)]
		if k20c == nil {
			panic("kepler: embedded device files are missing the K20c")
		}
		sort.Slice(allDevices, func(i, j int) bool {
			if (allDevices[i].Name == k20cName) != (allDevices[j].Name == k20cName) {
				return allDevices[i].Name == k20cName
			}
			return allDevices[i].Name < allDevices[j].Name
		})
	})
}

// K20cDevice returns the canonical device: the paper's Tesla K20c. The
// zero-value Clocks resolve their device through it on every timing-model
// call, so it returns the pointer loadDevices resolved once.
func K20cDevice() *Device {
	loadDevices()
	return k20c
}

// DeviceByName resolves a device by (case-insensitive) name. The empty name
// resolves to the K20c, so callers that predate the device backend keep
// their behaviour.
func DeviceByName(name string) (*Device, error) {
	if name == "" {
		return K20cDevice(), nil
	}
	loadDevices()
	if d := registry[strings.ToLower(name)]; d != nil {
		return d, nil
	}
	return nil, fmt.Errorf("kepler: unknown device %q (have %s)", name, deviceNameList())
}

// Devices returns every embedded device, K20c first, then by name.
func Devices() []*Device {
	loadDevices()
	return append([]*Device(nil), allDevices...)
}

// Profiles returns the cross-class comparison set: the paper's K20c, a
// Pascal-class discrete part and a Jetson-class low-power part.
func Profiles() []*Device {
	out := make([]*Device, 0, 3)
	for _, name := range []string{k20cName, "GTX1080", "JetsonTX2"} {
		d, err := DeviceByName(name)
		if err != nil {
			panic(err)
		}
		out = append(out, d)
	}
	return out
}

func deviceNameList() string {
	loadDevices()
	names := make([]string, 0, len(allDevices))
	for _, d := range allDevices {
		names = append(names, d.Name)
	}
	return strings.Join(names, ", ")
}

// Configurations returns the board's analogues of the paper's four
// evaluated configurations: default clocks, a ~13% lower core clock, the
// lowest core+memory clocks, and default clocks with ECC.
func (d *Device) Configurations() []Clocks {
	return append([]Clocks(nil), d.canonical...)
}

// DefaultConfig returns the board's default configuration.
func (d *Device) DefaultConfig() Clocks { return d.canonical[0] }

// Config returns the canonical configuration with the given role name
// ("default", "614", "324", "ecc").
func (d *Device) Config(role string) (Clocks, error) {
	for _, c := range d.canonical {
		if c.Name == role {
			return c, nil
		}
	}
	return Clocks{}, fmt.Errorf("kepler: device %q has no canonical configuration %q", d.Name, role)
}

// ConfigByName returns the device configuration with the given name: one of
// the canonical four, or a generated dense-grid configuration named
// "c<core>m<mem>" (see Grid), reconstructed from the name alone so grid
// configs round-trip through stores and service requests.
func (d *Device) ConfigByName(name string) (Clocks, error) {
	for _, c := range d.canonical {
		if c.Name == name {
			return c, nil
		}
	}
	if c, ok := d.parseGridName(name); ok {
		return c, nil
	}
	return Clocks{}, fmt.Errorf("kepler: unknown clock configuration %q for device %s", name, d.Name)
}

// VoltageFor returns the core supply voltage this device's DVFS ladder
// pairs with the given core frequency: exact on the ladder rungs,
// piecewise-linear between them, clamped to the end rungs outside the
// ladder's range. It is monotone non-decreasing in coreMHz.
func (d *Device) VoltageFor(coreMHz int) float64 {
	l := d.ladder
	if coreMHz <= l[0].mhz {
		return l[0].v
	}
	if coreMHz >= l[len(l)-1].mhz {
		return l[len(l)-1].v
	}
	for i := 1; i < len(l); i++ {
		if coreMHz <= l[i].mhz {
			lo, hi := l[i-1], l[i]
			if coreMHz == hi.mhz {
				return hi.v
			}
			frac := float64(coreMHz-lo.mhz) / float64(hi.mhz-lo.mhz)
			return lo.v + (hi.v-lo.v)*frac
		}
	}
	return l[len(l)-1].v
}

// MaxWarpsPerSM returns the resident-warp bound per SM.
func (d *Device) MaxWarpsPerSM() int { return d.MaxThreadsPerSM / WarpSize }

// ComputeOccupancy derives the per-SM residency for a launch of blocks with
// threadsPerBlock threads and sharedPerBlock bytes of shared memory each.
func (d *Device) ComputeOccupancy(threadsPerBlock, sharedPerBlock int) Occupancy {
	if threadsPerBlock <= 0 {
		threadsPerBlock = 1
	}
	warpsPerBlock := (threadsPerBlock + WarpSize - 1) / WarpSize
	blocks := d.MaxBlocksPerSM
	if byThreads := d.MaxThreadsPerSM / threadsPerBlock; byThreads < blocks {
		blocks = byThreads
	}
	if byWarps := d.MaxWarpsPerSM() / warpsPerBlock; byWarps < blocks {
		blocks = byWarps
	}
	if sharedPerBlock > 0 {
		if byShmem := d.SharedMemPerSM / sharedPerBlock; byShmem < blocks {
			blocks = byShmem
		}
	}
	if blocks < 1 {
		blocks = 1
	}
	warps := blocks * warpsPerBlock
	if warps > d.MaxWarpsPerSM() {
		warps = d.MaxWarpsPerSM()
	}
	return Occupancy{
		BlocksPerSM: blocks,
		WarpsPerSM:  warps,
		Fraction:    float64(warps) / float64(d.MaxWarpsPerSM()),
	}
}

// DefaultGrid returns this device's dense-grid bounds (a fresh copy).
func (d *Device) DefaultGrid() GridSpec {
	spec := d.GridSpec
	spec.MemMHz = append([]int(nil), spec.MemMHz...)
	return spec
}

// Grid expands the spec into this device's dense DVFS configuration list:
//
//   - the canonical four configurations first, bit-identical to
//     Configurations() (so every grid sweep embeds the paper's sweep);
//   - then every (core, mem) grid point, memory clocks in the spec's order,
//     core clocks ascending, skipping points that coincide with a canonical
//     configuration (already emitted).
//
// Every returned configuration passes Validate, has a unique name, and
// round-trips ConfigByName.
func (d *Device) Grid(spec GridSpec) ([]Clocks, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	out := make([]Clocks, 0, len(d.canonical)+8)
	out = append(out, d.canonical...)
	for _, mem := range spec.MemMHz {
		for core := spec.CoreMinMHz; core <= spec.CoreMaxMHz; core += spec.CoreStepMHz {
			if _, dup := d.canonicalByClocks(core, mem); dup {
				continue
			}
			out = append(out, d.gridConfig(core, mem))
		}
	}
	return out, nil
}

// gridConfig builds one generated grid configuration. ECC stays off on grid
// points; the canonical ecc role covers the ECC axis.
func (d *Device) gridConfig(coreMHz, memMHz int) Clocks {
	return Clocks{
		Name:     GridName(coreMHz, memMHz),
		CoreMHz:  coreMHz,
		MemMHz:   memMHz,
		VoltageV: d.VoltageFor(coreMHz),
		dev:      d.ref(),
	}
}

// canonicalByClocks indexes the device's non-ECC canonical configurations
// by their (core, mem) pair, for grid deduplication.
func (d *Device) canonicalByClocks(coreMHz, memMHz int) (Clocks, bool) {
	for _, c := range d.canonical {
		if !c.ECC && c.CoreMHz == coreMHz && c.MemMHz == memMHz {
			return c, true
		}
	}
	return Clocks{}, false
}

// parseGridName reconstructs a generated configuration from its
// "c<core>m<mem>" name; see the package-level parseGridName.
func (d *Device) parseGridName(name string) (Clocks, bool) {
	var core, mem int
	n, err := fmt.Sscanf(name, "c%dm%d", &core, &mem)
	if err != nil || n != 2 || name != GridName(core, mem) {
		return Clocks{}, false
	}
	if c, ok := d.canonicalByClocks(core, mem); ok {
		return c, true
	}
	c := d.gridConfig(core, mem)
	if err := c.Validate(); err != nil {
		return Clocks{}, false
	}
	return c, true
}
