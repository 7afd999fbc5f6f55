package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Machine-speed calibration. The benchmark runs on a shared host whose
// speed drifts by 20-40% for minutes at a time with other tenants' load,
// more than the regressions the bounds must catch. So every reported time
// is normalized by a calibration loop: fixed work from the standard library
// alone (integer arithmetic, a pointer chase through 16 MiB, a sort) that
// shares no code with the repository and allocates nothing, timed right
// before every round. A reported time is
//
//	median(measured times) × calibRef ÷ median(calibration times)
//
// with the calibrations of the run's rounds: seconds at the machine speed at
// which the calibration loop takes calibRef. Wall times are scaled by the
// loop's wall time and CPU times by its CPU time, so a host that steals the
// vCPU (wall grows, CPU does not) and one that slows it (both grow) are both
// undone. A code change moves the measured times and not the loop, so it
// shows in full. The raw medians are printed beside the normalized ones.

// calibRef is about the calibration loop's median time on the host the
// benchmark was sized on (2 vCPUs, Intel Xeon @ 2.10GHz).
const calibRef = 100 * time.Millisecond

// calibration is one timing of the calibration loop.
type calibration struct{ wall, cpu time.Duration }

var calib struct {
	once   sync.Once
	chase  []int32   // one random cycle through every index
	keys   []float64 // sort input, fixed
	sorted []float64
	sink   uint64
}

// calibrate runs the calibration loop once and times it.
func calibrate() calibration {
	calib.once.Do(func() {
		const n = 1 << 22 // 16 MiB of int32, beyond the caches
		rng := rand.New(rand.NewPCG(1, 2))
		calib.chase = make([]int32, n)
		for i := range calib.chase {
			calib.chase[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- { // Sattolo's shuffle: a single cycle
			j := rng.IntN(i)
			calib.chase[i], calib.chase[j] = calib.chase[j], calib.chase[i]
		}
		calib.keys = make([]float64, 1<<16)
		for i := range calib.keys {
			calib.keys[i] = rng.Float64()
		}
		calib.sorted = make([]float64, len(calib.keys))
	})
	cpu0 := cpuTime()
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 4_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 13
	}
	j := int32(0)
	for i := 0; i < 800_000; i++ {
		j = calib.chase[j]
	}
	copy(calib.sorted, calib.keys)
	slices.Sort(calib.sorted)
	calib.sink += x + uint64(j)
	return calibration{wall: time.Since(t0), cpu: cpuTime() - cpu0}
}

// normalized scales the median of times by calibRef over the median of the
// calibration times taken with them.
func normalized(times, cals []time.Duration) float64 {
	return median(seconds(times)) * calibRef.Seconds() / median(seconds(cals))
}

// resetPeakRSS restarts the kernel's resident-set high-water mark of this
// process at its current size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident-set high-water mark since the last reset.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "<n> kB"
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
