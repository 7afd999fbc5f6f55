// Package kepler describes the simulated GPUs. Historically it modeled one
// board — the Kepler-class NVIDIA Tesla K20c used by Coplin and Burtscher —
// as package constants; today every architectural number (SM/PE/warp
// geometry, throughputs, latencies, memory-system parameters, the ECC,
// power and sensor models, and the DVFS clock/voltage tables) is a field of
// a Device loaded from an embedded data file (see device.go). The paper's
// K20c remains the canonical instance (K20cDevice), and the package-level
// configuration values below delegate to it so the original single-board
// API — and its golden-pinned bit-exact behaviour — is unchanged.
package kepler

import "fmt"

// WarpSize is the number of tightly coupled threads per warp. It stays a
// compile-time constant (not a Device field): the execution engine's lane
// arrays are sized by it, and every device class the simulator models uses
// 32-thread warps.
const WarpSize = 32

// numCanonicalConfigs is the number of canonical configurations every
// device carries (the paper's four: default, 614, 324, ecc).
const numCanonicalConfigs = 4

// Clocks is one DVFS configuration of a device: the application clocks, the
// core voltage implied by the frequency (as in DVFS), and whether ECC
// protection of the main memory is enabled.
type Clocks struct {
	// Name identifies the configuration ("default", "614", "324", "ecc",
	// or a grid name "c<core>m<mem>").
	Name string `json:"name"`
	// CoreMHz is the SM core clock in MHz.
	CoreMHz int `json:"coreMHz"`
	// MemMHz is the effective memory data-rate clock in MHz.
	MemMHz int `json:"memMHz"`
	// VoltageV is the core supply voltage in volts.
	VoltageV float64 `json:"voltageV"`
	// ECC reports whether ECC protection of main memory is enabled.
	ECC bool `json:"ecc,omitempty"`
	// dev is the device this configuration belongs to; nil means the
	// paper's K20c (so the canonical K20c values predating the device
	// backend stay bit- and ==-comparable).
	dev *Device
}

// The four configurations evaluated by the paper, on the K20c. "Default" is
// the fastest sustainable setting (705 MHz core, 2.6 GHz memory); "F614"
// lowers only the core clock; "F324" lowers both core and memory clocks to
// the slowest available setting; "ECCDefault" is the default clocks with
// ECC enabled.
var (
	Default    = K20cDevice().canonical[0]
	F614       = K20cDevice().canonical[1]
	F324       = K20cDevice().canonical[2]
	ECCDefault = K20cDevice().canonical[3]
)

// Configs lists the four evaluated configurations in the paper's order.
var Configs = K20cDevice().Configurations()

// ConfigByName returns the K20c configuration with the given name: one of
// the canonical four, or a generated dense-grid configuration named
// "c<core>m<mem>" (see Device.Grid), reconstructed from the name alone so grid
// configs round-trip through stores and service requests.
func ConfigByName(name string) (Clocks, error) {
	for _, c := range Configs {
		if c.Name == name {
			return c, nil
		}
	}
	if c, ok := K20cDevice().parseGridName(name); ok {
		return c, nil
	}
	return Clocks{}, fmt.Errorf("kepler: unknown clock configuration %q", name)
}

// Device returns the device this configuration belongs to (the K20c for
// the zero value and every configuration predating the device backend).
func (c Clocks) Device() *Device {
	if c.dev == nil {
		return K20cDevice()
	}
	return c.dev
}

// SMCount returns the device's streaming-multiprocessor count.
func (c Clocks) SMCount() int { return c.Device().SMs }

// CoreHz returns the core clock in Hz.
func (c Clocks) CoreHz() float64 { return float64(c.CoreMHz) * 1e6 }

// MemHz returns the effective memory clock in Hz.
func (c Clocks) MemHz() float64 { return float64(c.MemMHz) * 1e6 }

// MemBandwidth returns the peak global-memory bandwidth in bytes per second,
// accounting for the ECC overhead when enabled (ECC information shares the
// same DRAM bus, reducing usable bandwidth by the capacity-loss factor).
func (c Clocks) MemBandwidth() float64 {
	d := c.Device()
	bw := c.MemHz() * float64(d.BusBytesPerMemClock)
	if c.ECC {
		bw *= 1 - d.ECC.CapacityLoss
	}
	return bw
}

// MemLatency returns the global-memory access latency in seconds. ECC adds
// latency because the memory controller must fetch and check the ECC words.
func (c Clocks) MemLatency() float64 {
	d := c.Device()
	lat := float64(d.DRAMLatencyMemClocks) / c.MemHz()
	if c.ECC {
		lat *= d.ECC.LatencyFactor
	}
	return lat
}

// UsableDRAM returns the global-memory capacity available to programs.
func (c Clocks) UsableDRAM() int64 {
	d := c.Device()
	if c.ECC {
		return int64(float64(d.DRAMBytes) * (1 - d.ECC.CapacityLoss))
	}
	return d.DRAMBytes
}

// String returns a human-readable description of the configuration.
func (c Clocks) String() string {
	ecc := "off"
	if c.ECC {
		ecc = "on"
	}
	return fmt.Sprintf("%s (core %d MHz, mem %d MHz, %.2f V, ECC %s)",
		c.Name, c.CoreMHz, c.MemMHz, c.VoltageV, ecc)
}

// Validate reports an error if the configuration is internally inconsistent.
func (c Clocks) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("kepler: configuration has no name")
	case c.CoreMHz <= 0 || c.MemMHz <= 0:
		return fmt.Errorf("kepler: %s: clocks must be positive", c.Name)
	case c.VoltageV < 0.5 || c.VoltageV > 1.5:
		return fmt.Errorf("kepler: %s: implausible voltage %.2f V", c.Name, c.VoltageV)
	}
	return nil
}

// Models lists the Kepler-family boards the paper cross-checked. The paper
// reports that initial experiments on the K20m, K20x and K40 "resulted in
// the same findings after appropriately scaling the absolute measurements"
// — the simulator carries those boards as full device descriptions so that
// claim can be re-verified (see the cross-GPU experiment in internal/core).
var Models = []*Device{
	K20cDevice(),
	mustDevice("K20m"),
	mustDevice("K20x"),
	mustDevice("K40"),
}

func mustDevice(name string) *Device {
	d, err := DeviceByName(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Occupancy describes how many blocks, warps and threads are resident per SM
// for a given launch shape.
type Occupancy struct {
	BlocksPerSM int
	WarpsPerSM  int
	// Fraction is resident warps divided by the maximum (0, 1].
	Fraction float64
}
