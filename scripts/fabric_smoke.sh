#!/usr/bin/env bash
# Sweep-fabric smoke test, through the real gpuchard binary:
#
#   1. A standalone server runs a sweep — the baseline /v1/results bytes —
#      then a small-grid frontier and an attribution of NB — the baseline
#      job results.
#   2. A 1-coordinator + 3-worker fabric, each worker on a -store trace
#      directory of its own, runs the same sweep; its merged
#      /v1/results must be byte-identical to the standalone baseline, and
#      its frontier and attribution job results (each dispatched to a
#      worker as one shard) must match the standalone results.
#   3. The coordinator's federated /metrics must pass the promtool-style
#      lint (cmd/promlint — pure Go, no network).
#   4. One worker is killed; a fresh coordinator (it keeps nothing) re-runs
#      the sweep over the surviving pair and must still merge the exact
#      baseline bytes.
#   5. The standalone server is restarted on its -store directory: it
#      replays the same sweep from its stored traces, with zero
#      simulations, and must merge the exact baseline bytes.
#
# Shared by `make fabric-smoke` and the CI fabric-smoke job. Requires curl
# and jq; PROMLINT must point at a built cmd/promlint binary (defaults to
# `go run ./cmd/promlint`).
set -euo pipefail

BIN=${1:-/tmp/gpuchard-fabric}
PROMLINT=${PROMLINT:-go run ./cmd/promlint}
PORT_BASE=${GPUCHARD_FABRIC_PORT_BASE:-18450}
SWEEP='{}'   # empty request = the full default sweep: every program, canonical configs
FRONTIER='{"program":"NB","spec":{"coreMinMHz":324,"coreMaxMHz":758,"coreStepMHz":62,"memMHz":[2600]}}'
ATTRIB='{"programs":["NB"],"configs":["default"]}'
OUT=$(mktemp -d)

W1="127.0.0.1:$((PORT_BASE + 1))"
W2="127.0.0.1:$((PORT_BASE + 2))"
W3="127.0.0.1:$((PORT_BASE + 3))"
CO="127.0.0.1:$((PORT_BASE + 4))"
CO2="127.0.0.1:$((PORT_BASE + 5))"
SA="127.0.0.1:$((PORT_BASE + 6))"

PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$OUT"
}
trap cleanup EXIT

wait_up() { # addr
    for _ in $(seq 1 150); do
        if curl -fsS "http://$1/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "fabric smoke: $1 never became ready" >&2
    return 1
}

run_job() { # base route body — POST a job, poll it to done, print its final view
    local base=$1 route=$2 body=$3 id view status
    id=$(curl -fsS -X POST "http://$base$route" \
        -H 'Content-Type: application/json' -d "$body" | jq -r .id)
    for _ in $(seq 1 3000); do
        view=$(curl -fsS "http://$base/v1/jobs/$id")
        status=$(jq -r .status <<<"$view")
        case "$status" in
            done) printf '%s\n' "$view"; return 0 ;;
            failed|canceled)
                echo "fabric smoke: $route job $id on $base: $status" >&2
                return 1 ;;
        esac
        sleep 0.2
    done
    echo "fabric smoke: $route job $id on $base stuck" >&2
    return 1
}

run_sweep() { # base outfile — run the sweep, dump /v1/results
    run_job "$1" /v1/sweep "$SWEEP" >/dev/null
    curl -fsS "http://$1/v1/results" >"$2"
}

run_results() { # base outprefix — frontier and attribution job results
    run_job "$1" /v1/frontier "$FRONTIER" | jq -c .result >"$2.frontier.json"
    run_job "$1" /v1/attrib "$ATTRIB" | jq -c .result >"$2.attrib.json"
}

# 1. Standalone baseline.
"$BIN" -addr "$SA" -store "$OUT/sa-traces" &
SA_PID_INDEX=${#PIDS[@]}
PIDS+=($!)
wait_up "$SA"
run_sweep "$SA" "$OUT/baseline.json"
run_results "$SA" "$OUT/baseline"

# 2. The fabric: 3 workers + 1 coordinator, same sweep, identical bytes.
"$BIN" -role worker -addr "$W1" -store "$OUT/w1-traces" & PIDS+=($!)
"$BIN" -role worker -addr "$W2" -store "$OUT/w2-traces" & PIDS+=($!)
W3_PID_INDEX=${#PIDS[@]}
"$BIN" -role worker -addr "$W3" -store "$OUT/w3-traces" & PIDS+=($!)
wait_up "$W1"; wait_up "$W2"; wait_up "$W3"
"$BIN" -role coordinator -addr "$CO" -health 1s \
    -peers "http://$W1,http://$W2,http://$W3" &
PIDS+=($!)
wait_up "$CO"
curl -fsS "http://$CO/readyz" | jq -e '.workers == 3' >/dev/null
run_sweep "$CO" "$OUT/fabric.json"
cmp "$OUT/baseline.json" "$OUT/fabric.json"
run_results "$CO" "$OUT/fabric"
cmp "$OUT/baseline.frontier.json" "$OUT/fabric.frontier.json"
cmp "$OUT/baseline.attrib.json" "$OUT/fabric.attrib.json"

# 3. Federated metrics are valid Prometheus exposition text.
curl -fsS "http://$CO/metrics" >"$OUT/metrics.prom"
$PROMLINT <"$OUT/metrics.prom"
grep -q 'gpuchard_fabric_workers_ready{worker="coordinator"} 3' "$OUT/metrics.prom"
grep -q 'worker="http://' "$OUT/metrics.prom"

# 4. Kill one worker; a cold coordinator over the survivors must still
# merge the exact baseline bytes.
kill -9 "${PIDS[$W3_PID_INDEX]}" 2>/dev/null || true
"$BIN" -role coordinator -addr "$CO2" -health 1s \
    -peers "http://$W1,http://$W2,http://$W3" &
PIDS+=($!)
wait_up "$CO2"
run_sweep "$CO2" "$OUT/fabric2.json"
cmp "$OUT/baseline.json" "$OUT/fabric2.json"

# 5. A standalone server restarted on its trace store replays the sweep.
kill -TERM "${PIDS[$SA_PID_INDEX]}"
wait "${PIDS[$SA_PID_INDEX]}" || true
"$BIN" -addr "$SA" -store "$OUT/sa-traces" &
PIDS+=($!)
wait_up "$SA"
run_sweep "$SA" "$OUT/restart.json"
cmp "$OUT/baseline.json" "$OUT/restart.json"
curl -fsS "http://$SA/metrics" >"$OUT/restart.prom"
grep -qx 'gpuchard_trace_cache_captures_total 0' "$OUT/restart.prom"
grep -Eq '^gpuchard_trace_broker_fetch_hits_total [1-9]' "$OUT/restart.prom"

echo "fabric smoke: OK"
