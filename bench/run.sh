#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the toolchain's temporary files, the binary,
# and the traced run's profiles and trace.json.
#
# Usage (from anywhere inside a checkout):
#   bash bench/run.sh -workload cold_sweep -seed 3 -seconds 15 -trace 0
#   bash bench/run.sh -workload all
#   bash bench/run.sh -compare before.jsonl after.jsonl
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
