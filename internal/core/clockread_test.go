package core_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/kepler"
	"repro/internal/sim"
)

// clockReader reads the simulated clock between its two launches, so its
// Go-side evolution could depend on the configuration and no capture of it
// can be replayed.
type clockReader struct {
	core.Meta
	read func(*sim.Device)
}

func (p *clockReader) Run(ctx context.Context, dev *sim.Device, input string) error {
	dev.SetTimeScale(100)
	l := dev.Launch("k1", 512, 256, func(c *sim.Ctx) { c.FP32Ops(400) })
	dev.Repeat(l, 4000)
	p.read(dev)
	dev.Launch("k2", 64, 256, func(c *sim.Ctx) { c.IntOps(100) })
	return nil
}

// recordingBroker is a TraceBroker that holds nothing and counts what it is
// asked to store.
type recordingBroker struct {
	mu     sync.Mutex
	stores int
}

func (b *recordingBroker) FetchTrace(device, program, input string) *sim.LaunchTrace { return nil }

func (b *recordingBroker) StoreTrace(device, program, input string, tr *sim.LaunchTrace) {
	b.mu.Lock()
	b.stores++
	b.mu.Unlock()
}

// TestClockReadFailsMeasurement: every measured device is a replay, so a
// program that reads the simulated clock mid-run cannot be measured. Each
// entry point fails naming the read, and the unreplayable trace is neither
// cached nor published. The verdict is: after the one capture that found
// the read, every configuration of the program fails with it without
// simulating again.
func TestClockReadFailsMeasurement(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name, reason string
		read         func(*sim.Device)
	}{
		{"Now", "mid-run Now() read", func(d *sim.Device) { _ = d.Now() }},
		{"ActiveTime", "mid-run ActiveTime() read", func(d *sim.Device) { _ = d.ActiveTime() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &clockReader{
				Meta: core.Meta{ProgName: "toy-clock-" + tc.name, ProgSuite: core.SuiteSDK, Kernels: 2,
					InputNames: []string{"default"}, Default: "default"},
				read: tc.read,
			}
			b := &recordingBroker{}
			r := core.NewRunner()
			r.Repetitions = 1
			r.Broker = b
			failsNamingRead := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.reason) {
					t.Errorf("%s = %v, want an error naming the %s", what, err, tc.reason)
				}
			}

			var measured error
			for _, clk := range []kepler.Clocks{kepler.Default, kepler.ECCDefault} {
				_, err := r.Measure(ctx, p, "default", clk)
				failsNamingRead("Measure@"+clk.Name, err)
				if clk == kepler.Default {
					measured = err
				}
			}
			if got := r.Metrics().Snapshot().Counters["trace_cache_captures"]; got != 0 {
				t.Errorf("trace_cache_captures = %d, want 0", got)
			}
			if b.stores != 0 {
				t.Errorf("broker saw %d StoreTrace calls, want 0", b.stores)
			}

			_, err := r.SimulatedDevice(ctx, p, "default", kepler.Default)
			if err == nil || measured == nil || err.Error() != measured.Error() {
				t.Errorf("SimulatedDevice = %v, want Measure's error %v", err, measured)
			}
			_, err = frontier.Sweep(ctx, r, p, frontier.Options{})
			failsNamingRead("frontier.Sweep", err)
			if got := r.Metrics().Snapshot().Counters["simulate_runs_device_K20c"]; got != 1 {
				t.Errorf("simulate_runs_device_K20c = %d after every entry point, want 1", got)
			}

			// A sweep on a fresh runner: one simulation, and every point of
			// the grid fails naming the read.
			fresh := core.NewRunner()
			fresh.Repetitions = 1
			_, err = frontier.Sweep(ctx, fresh, p, frontier.Options{})
			failsNamingRead("fresh frontier.Sweep", err)
			grid, gerr := kepler.K20cDevice().Grid(kepler.K20cDevice().DefaultGrid())
			if gerr != nil {
				t.Fatal(gerr)
			}
			for _, clk := range grid {
				_, err := fresh.Measure(ctx, p, "default", clk)
				failsNamingRead("Measure@"+clk.Name+" after the sweep", err)
			}
			if got := fresh.Metrics().Snapshot().Counters["simulate_runs_device_K20c"]; got != 1 {
				t.Errorf("a frontier sweep and %d Measure calls ran %d simulations, want 1", len(grid), got)
			}
		})
	}
}
