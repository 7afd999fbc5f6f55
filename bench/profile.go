package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// The traced run's CPU shares come from a CPU profile printed by
// `go tool pprof -traces` (part of the toolchain, so no network) and
// bucketed by layer. A sample belongs to the first of these that applies:
//
//  1. gc: a garbage-collector frame anywhere on the stack;
//  2. warp_merge: trace.MergeWarp, segmentCount or distinctCount on the stack;
//  3. oracles: one of the programs' five reference oracles on the stack
//     (PTA's solver, Dijkstra, Kruskal, the BFS reference) or, since BH's
//     direct summation is inlined into its Run, a sample whose innermost
//     repository frame is BH's Run;
//  4. otherwise the innermost frame whose package names a layer, skipping
//     runtime and generic helper frames (their cost is the caller's);
//  5. other.

// cpuBuckets lists the share metrics, each reported as cpu.<bucket>.
var cpuBuckets = []string{
	"warp_merge", "oracles", "lane_log", "sim_engine", "kernels", "power",
	"sensor", "k20power", "frontier", "serve_http", "json", "gc", "other",
}

var (
	gcFrames        = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.wbBuf", "runtime.sweepone"}
	warpMergeFrames = []string{"repro/internal/trace.MergeWarp", "repro/internal/trace.segmentCount", "repro/internal/trace.distinctCount"}
	oracleFrames    = []string{"repro/internal/lonestar.ptaSolveRef", "repro/internal/graph.Dijkstra", "repro/internal/graph.MSTWeight", "repro/internal/graph.BFSLevels"}
	bhDirectSum     = "repro/internal/lonestar.(*BH).Run"
)

// layerPrefixes maps frame prefixes to buckets for rule 4, most specific
// first. Frames matching helperPrefixes are skipped.
var layerPrefixes = []struct{ prefix, bucket string }{
	{"repro/internal/trace.(*LaneLog)", "lane_log"},
	{"repro/internal/sim.(*Ctx)", "lane_log"},
	{"repro/internal/sim.", "sim_engine"},
	{"repro/internal/trace.", "sim_engine"},
	{"repro/internal/sdk.", "kernels"},
	{"repro/internal/lonestar.", "kernels"},
	{"repro/internal/parboil.", "kernels"},
	{"repro/internal/rodinia.", "kernels"},
	{"repro/internal/shoc.", "kernels"},
	{"repro/internal/graph.", "kernels"},
	{"repro/internal/mesh.", "kernels"},
	{"repro/internal/power.", "power"},
	{"repro/internal/sensor.", "sensor"},
	{"repro/internal/k20power.", "k20power"},
	{"repro/internal/frontier.", "frontier"},
	{"encoding/json.", "json"},
	{"repro/internal/serve.", "serve_http"},
	{"net/", "serve_http"},
	{"net.", "serve_http"},
}

var helperPrefixes = []string{
	"runtime", "internal/", "syscall.", "sync.", "sort.", "slices.", "math.",
	"math/", "strconv.", "bytes.", "strings.", "unicode", "reflect.", "bufio.",
	"io.", "fmt.", "context.", "time.", "maps.", "cmp.",
	"repro/internal/stats.", "repro/internal/hashing.", "repro/internal/xrand.", "repro/internal/obs.",
}

// classify assigns one sample's stack (innermost frame first) to a bucket.
func classify(stack []string) string {
	if anyFrame(stack, gcFrames) {
		return "gc"
	}
	if anyFrame(stack, warpMergeFrames) {
		return "warp_merge"
	}
	if anyFrame(stack, oracleFrames) {
		return "oracles"
	}
	for _, f := range stack {
		if hasPrefix(f, helperPrefixes) {
			continue
		}
		if f == bhDirectSum {
			return "oracles"
		}
		for _, lp := range layerPrefixes {
			if strings.HasPrefix(f, lp.prefix) {
				return lp.bucket
			}
		}
		return "other"
	}
	return "other"
}

func anyFrame(stack, prefixes []string) bool {
	for _, f := range stack {
		if hasPrefix(f, prefixes) {
			return true
		}
	}
	return false
}

func hasPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuProfile is a bucketed CPU profile.
type cpuProfile struct {
	total    time.Duration
	buckets  map[string]time.Duration
	programs map[string]time.Duration // by the "program" pprof label
}

// parseTraces reads `go tool pprof -traces` output: samples separated by
// dashed lines, each an optional block of "key:  value" label lines, then
// the innermost frame prefixed by the sample's value, then one caller frame
// per line.
func parseTraces(r io.Reader) (*cpuProfile, error) {
	p := &cpuProfile{buckets: make(map[string]time.Duration), programs: make(map[string]time.Duration)}
	var (
		value   time.Duration
		stack   []string
		program string
		started bool
	)
	flush := func() {
		if len(stack) > 0 {
			p.total += value
			p.buckets[classify(stack)] += value
			if program != "" {
				p.programs[program] += value
			}
		}
		value, stack, program = 0, nil, ""
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		if !started || strings.TrimSpace(line) == "" {
			continue // header lines
		}
		fields := strings.Fields(line)
		if len(stack) == 0 && len(fields) >= 2 && strings.HasSuffix(fields[0], ":") {
			if fields[0] == "program:" {
				program = strings.Trim(fields[1], "[]")
			}
			continue
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			value = d
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return p, nil
}

// profileBuckets buckets the CPU profile at path with the toolchain's pprof.
func profileBuckets(path string) (*cpuProfile, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return parseTraces(bytes.NewReader(out))
}

// addShares records the profile's bucket shares, and each labelled
// program's CPU seconds per round over the profile's rounds.
func (p *cpuProfile) addShares(layers map[string]float64, rounds int) {
	for _, b := range cpuBuckets {
		share := 0.0
		if p.total > 0 {
			share = float64(p.buckets[b]) / float64(p.total)
		}
		layers["cpu."+b] = share
	}
	for prog, d := range p.programs {
		layers["core.program_cpu_s."+prog] = d.Seconds() / float64(rounds)
	}
}
