package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kepler"
)

// irregularProgram has imbalanced blocks (a heavy tail in block id), a grid
// smaller than the SM count, a grid far above the device's block slots and a
// single-block launch: the shapes that exercise every branch of
// blockSchedule.
func irregularProgram(g *GPU) {
	data := g.NewArray(1<<15, 4)
	g.Launch("skewed", 300, 128, func(c *Ctx) {
		c.Load(data.At(c.TID()%(1<<15)), 4)
		c.FP32Ops(1 + (c.Block*c.Block)%97)
	})
	g.Launch("tiny", 3, 64, func(c *Ctx) { c.IntOps(5 + c.Block) })
	g.LaunchShared("wide", 2500, 256, 8192, func(c *Ctx) {
		c.IntOps(2 + c.Block%13)
		c.SharedAccessRep(uint64(c.Thread*4), 1)
		c.SyncThreads()
	})
	g.HostPause(0.001)
	g.Launch("single", 1, 32, func(c *Ctx) { c.SFUOps(9) })
}

// sameSchedule reports whether two schedules agree bit for bit.
func sameSchedule(a, b launchSchedule) bool {
	return a.bps == b.bps &&
		math.Float64bits(a.makespan) == math.Float64bits(b.makespan) &&
		math.Float64bits(a.sumCycles) == math.Float64bits(b.sumCycles)
}

// checkStoredSchedules asserts every launch of tr carries the schedule
// blockSchedule derives from its BlockCycles on the trace's device.
func checkStoredSchedules(t *testing.T, label string, tr *LaunchTrace, desc *kepler.Device) {
	t.Helper()
	launches := 0
	for i := range tr.events {
		cl := tr.events[i].launch
		if tr.events[i].kind != evLaunch {
			continue
		}
		launches++
		want := blockSchedule(desc.SMs, cl.Occ, cl.BlockCycles)
		if !sameSchedule(cl.sched, want) {
			t.Errorf("%s: launch %q stores schedule %+v, recomputed %+v", label, cl.Spec.Name, cl.sched, want)
		}
		if cl.sched.bps < 1 || cl.sched.makespan <= 0 {
			t.Errorf("%s: launch %q has a degenerate schedule %+v", label, cl.Spec.Name, cl.sched)
		}
	}
	if launches == 0 {
		t.Fatalf("%s: no launches captured", label)
	}
}

// TestDerivedScheduleMatchesBlockCycles: the schedule a capture stores, and
// the one DecodeTrace re-derives, equal blockSchedule over the BlockCycles
// bitwise, and replaying either trace at every configuration of its device
// gives the same timeline bitwise.
func TestDerivedScheduleMatchesBlockCycles(t *testing.T) {
	programs := []struct {
		name string
		run  func(*GPU)
	}{
		{"capture", captureProgram},
		{"irregular", irregularProgram},
	}
	for _, desc := range kepler.Profiles() {
		configs := desc.Configurations()
		if len(configs) < 3 {
			t.Fatalf("%s: %d configurations, want at least 3", desc.Name, len(configs))
		}
		for _, p := range programs {
			label := fmt.Sprintf("%s/%s", desc.Name, p.name)
			tr := captureOn(desc, p.run)
			checkStoredSchedules(t, label+" capture", tr, desc)

			data, err := EncodeTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeTrace(data)
			if err != nil {
				t.Fatal(err)
			}
			checkStoredSchedules(t, label+" decoded", decoded, desc)

			for _, clk := range configs {
				if d := diffDevices(mustReplay(t, tr, clk), mustReplay(t, decoded, clk)); d != "" {
					t.Errorf("%s at %s: decoded replay diverged from the capture's: %s", label, clk.Name, d)
				}
			}
		}
	}
}
