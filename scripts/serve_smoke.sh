#!/usr/bin/env bash
# gpuchard smoke test: coalescing + graceful shutdown, through the real
# binary. Starts the server, issues the same measure request concurrently
# N times, asserts exactly one simulation ran (obs counters) and all
# responses are byte-identical, then SIGTERMs the server and asserts the
# store was saved with the measurement. Shared by `make serve-smoke` and
# the CI serve-smoke job. Requires curl and jq.
set -euo pipefail

BIN=${1:-/tmp/gpuchard-smoke}
STORE=${2:-/tmp/gpuchard-smoke-store.json}
ADDR=${GPUCHARD_SMOKE_ADDR:-127.0.0.1:18347}
BASE="http://$ADDR"
N=6
OUT=$(mktemp -d)

rm -f "$STORE"
"$BIN" -addr "$ADDR" -store "$STORE" -snapshot 0 &
SERVER=$!
cleanup() { kill "$SERVER" 2>/dev/null || true; rm -rf "$OUT"; }
trap cleanup EXIT

# Wait for the server to come up.
for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
curl -fsS "$BASE/healthz" | jq -e '.status == "ok"'

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
curl -fsS "$BASE/metrics" >"$OUT/metrics.prom"
expect_sample() {
    grep -qxF "$1" "$OUT/metrics.prom" || { echo "serve smoke: /metrics lacks: $1" >&2; exit 1; }
}
expect_sample 'gpuchard_stage_simulate_seconds_count 1'
expect_sample "gpuchard_http_measure_requests_total $N"
expect_sample 'gpuchard_measure_cache_misses_total 1'

# The cached result is listed.
curl -fsS "$BASE/v1/results" | jq -e '.count == 1 and .results[0].program == "NN"'

# Graceful shutdown saves the store.
kill -TERM "$SERVER"
wait "$SERVER"
jq -e '.results | length == 1' "$STORE"
jq -e '.results[0].program == "NN"' "$STORE"

echo "serve smoke: OK"
