package main

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testPortBase keeps the tests' fleets off the benchmark's default ports.
const testPortBase = 18531

// miniOptions shrinks a workload to the given programs and one round per
// phase; everything else runs the benchmark's own code path.
func miniOptions(t *testing.T, progs ...string) *options {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return &options{
		root:     root,
		seed:     3,
		seconds:  time.Second,
		traceDir: t.TempDir(),
		portBase: testPortBase,
		programs: progs,
		rounds:   1,
	}
}

func TestMiniRunEveryWorkload(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	produced := make(map[string]bool)
	for _, w := range workloads {
		// P-BFS is clock-sensitive, so the mini cold sweep also re-simulates.
		progs := []string{"NN", "CUTCP"}
		if w.name == "cold_sweep" {
			progs = []string{"NN", "P-BFS"}
		}
		for _, traced := range []bool{false, true} {
			o := miniOptions(t, progs...)
			o.traced = traced
			out, err := runWorkload(context.Background(), w, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if out.attempted == 0 || out.failed != 0 || out.wrong != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, wrong %d", w.name, traced, out.attempted, out.failed, out.wrong)
			}
			for k := range out.values {
				produced[k] = true
			}
			if traced {
				continue
			}
			for _, m := range sp.EndToEnd {
				if out.values[m.Name] <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, out.values[m.Name])
				}
			}
		}
	}
	// Every per-layer metric comes from some workload (per-program CPU needs
	// more profile samples than a mini run takes).
	for _, m := range sp.PerLayer {
		if !produced[m.Name] && !strings.HasPrefix(m.Name, "core.program_cpu_s.") {
			t.Errorf("per-layer metric %s is produced by no workload", m.Name)
		}
	}
}

func TestFleetOnSamePortsPlacesShardsIdentically(t *testing.T) {
	grid, err := denseGrid()
	if err != nil {
		t.Fatal(err)
	}
	progs, err := programs(miniOptions(t, "NN", "CUTCP"), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := sweepBody(progs, grid)
	shardSizes := func() map[string]int64 {
		f, err := startFleet(testPortBase, grid, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := f.client.sweep(context.Background(), body)
		if serr := f.stop(); err == nil {
			err = serr
		}
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != "done" {
			t.Fatalf("sweep %s: %s", v.Status, v.Error)
		}
		sizes := make(map[string]int64)
		for _, sh := range v.Shards {
			sizes[sh.Worker] += sh.Combinations
		}
		return sizes
	}
	first, second := shardSizes(), shardSizes()
	if len(first) != fleetWorkers {
		t.Errorf("shards went to %d workers, want %d: %v", len(first), fleetWorkers, first)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("per-worker shard sizes differ between fleets on the same ports: %v vs %v", first, second)
	}
}

func TestFleetBindFailureNamesThePort(t *testing.T) {
	busy := testPortBase + 2
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", busy))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	grid, err := denseGrid()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := startFleet(testPortBase, grid, nil); err == nil || !strings.Contains(err.Error(), strconv.Itoa(busy)) {
		t.Fatalf("startFleet with port %d taken: %v, want an error naming the port", busy, err)
	}
	// The ports bound before the failure were released.
	free, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", testPortBase))
	if err != nil {
		t.Fatalf("port %d still bound after the failed start: %v", testPortBase, err)
	}
	free.Close()
}
