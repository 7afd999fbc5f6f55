#!/usr/bin/env bash
# Re-baselines the committed benchmark records: runs the four workloads of
# BENCHMARK.json through bench/run.sh over seeds 1-5 and rewrites
# BENCH_<workload>.jsonl with their -record lines (5 per file). Seed-major:
# each seed runs all four workloads in turn, so host drift hits them alike.
# Compare a later run against the committed records with
#   bash bench/run.sh -compare BENCH_<workload>.jsonl new.jsonl
#
# Usage: scripts/bench.sh
set -euo pipefail

cd "$(dirname "$0")/.."
workloads=(cold_sweep frontier_grid attrib_grid fleet_sweep)

for w in "${workloads[@]}"; do
    : >"BENCH_$w.jsonl"
done
for seed in 1 2 3 4 5; do
    for w in "${workloads[@]}"; do
        bash bench/run.sh -workload "$w" -seed "$seed" -record "BENCH_$w.jsonl"
    done
done
