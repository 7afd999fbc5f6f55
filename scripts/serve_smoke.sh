#!/usr/bin/env bash
# gpuchard smoke test: coalescing, graceful shutdown and the trace store,
# through the real binary. Starts the server on a fresh -store directory,
# issues the same measure request concurrently N times, asserts exactly one
# simulation ran (obs counters) and all responses are byte-identical, then
# SIGTERMs the server, restarts it on the same directory and asserts the
# repeated measure is byte-identical with zero captures and zero
# simulations. Shared by `make serve-smoke` and the CI serve-smoke job.
# Requires curl and jq.
set -euo pipefail

BIN=${1:-/tmp/gpuchard-smoke}
ADDR=${GPUCHARD_SMOKE_ADDR:-127.0.0.1:18347}
BASE="http://$ADDR"
N=6
OUT=$(mktemp -d)
STORE="$OUT/traces"

SERVER=
start_server() {
    "$BIN" -addr "$ADDR" -store "$STORE" &
    SERVER=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
        sleep 0.2
    done
    curl -fsS "$BASE/healthz" | jq -e '.status == "ok"'
}
cleanup() { [ -n "$SERVER" ] && kill "$SERVER" 2>/dev/null || true; rm -rf "$OUT"; }
trap cleanup EXIT

start_server

# N concurrent identical measure requests.
pids=()
for i in $(seq 1 $N); do
    curl -fsS -X POST "$BASE/v1/measure" \
        -H 'Content-Type: application/json' \
        -d '{"program":"NN"}' -o "$OUT/resp-$i.json" &
    pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done

# Byte-identical responses.
for i in $(seq 2 $N); do
    cmp "$OUT/resp-1.json" "$OUT/resp-$i.json"
done
jq -e '.program == "NN" and .activeTime > 0 and .energy > 0' "$OUT/resp-1.json" >/dev/null

# Exactly one simulation despite N requests: the rest coalesced. Each
# check is an exact sample line of the Prometheus text exposition.
expect_sample() { # file sample
    grep -qxF "$2" "$1" || { echo "serve smoke: $1 lacks: $2" >&2; exit 1; }
}
curl -fsS "$BASE/metrics" >"$OUT/metrics.prom"
expect_sample "$OUT/metrics.prom" 'gpuchard_stage_simulate_seconds_count 1'
expect_sample "$OUT/metrics.prom" "gpuchard_http_measure_requests_total $N"
expect_sample "$OUT/metrics.prom" 'gpuchard_measure_cache_misses_total 1'

# The cached result is listed.
curl -fsS "$BASE/v1/results" | jq -e '.count == 1 and .results[0].program == "NN"'

# Graceful shutdown, then a restart on the same store: the repeated
# measure replays the stored trace, byte-identical, with zero captures and
# zero simulations.
kill -TERM "$SERVER"
wait "$SERVER"
SERVER=
start_server
curl -fsS "$BASE/v1/results" | jq -e '.count == 0'
curl -fsS -X POST "$BASE/v1/measure" \
    -H 'Content-Type: application/json' \
    -d '{"program":"NN"}' -o "$OUT/resp-restart.json"
cmp "$OUT/resp-1.json" "$OUT/resp-restart.json"
curl -fsS "$BASE/metrics" >"$OUT/metrics-restart.prom"
expect_sample "$OUT/metrics-restart.prom" 'gpuchard_trace_cache_captures_total 0'
expect_sample "$OUT/metrics-restart.prom" 'gpuchard_trace_broker_fetch_hits_total 1'
if grep -Eq '^gpuchard_simulate_runs_total\{device="K20c"\} [1-9]' "$OUT/metrics-restart.prom"; then
    echo "serve smoke: the restarted server simulated" >&2
    exit 1
fi

echo "serve smoke: OK"
