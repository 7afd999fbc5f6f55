// Package repro reproduces Coplin and Burtscher's "Energy, Power, and
// Performance Characterization of GPGPU Benchmark Programs" (IPDPS
// Workshops 2016) as a self-contained Go library.
//
// The physical testbed — a Tesla K20c GPU with its on-board power sensor,
// driven by CUDA benchmarks and measured by the K20Power tool — is replaced
// by a simulated substrate:
//
//   - internal/kepler, internal/trace, internal/sim: a warp-level timing
//     simulator of a Kepler-class device (coalescing, divergence, shared
//     memory banks, DVFS clocks, ECC);
//   - internal/power, internal/sensor, internal/k20power: an energy-based
//     power model, the on-board sensor's sampling behaviour, and the
//     measurement-log analysis;
//   - internal/lonestar, internal/parboil, internal/rodinia, internal/shoc,
//     internal/sdk: the paper's 34 benchmark programs re-implemented as
//     real, self-validating algorithms;
//   - internal/core: the characterization framework and the experiment
//     drivers that regenerate every table and figure.
//
// cmd/gpuchar regenerates and prints each of the paper's tables and
// figures; bench/ is the repository's benchmark.
package repro
