GO ?= go

.PHONY: all build vet test race fuzz check selfcheck golden smoke frontier-smoke serve-smoke fabric-smoke device-smoke attrib-smoke bench lint-launch lint-device ci

all: ci

build:
	$(GO) build ./...

# bench/ is a Go module of its own, so the root ./... never reaches it;
# vetting it catches a product API change that breaks the benchmark.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/sim/... ./internal/serve/... ./internal/frontier/... ./internal/sdk/...

# Short fuzz smokes, seeds plus 10s of mutation each: the warp merge
# against its reference implementation, and the launch-trace decoder on
# mutated real encodings.
fuzz:
	$(GO) test -fuzz=FuzzMergeWarp -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzDecodeTrace -fuzztime=10s ./internal/sim

# Full physics-invariant verification sweep + golden corpus diff.
check:
	$(GO) test -v -timeout 20m ./internal/check/...

selfcheck:
	$(GO) run ./cmd/gpuchar -selfcheck

# Regenerate the golden corpus. Do this ONLY together with a deliberate
# physics change and a core.StoreVersion bump (see DESIGN.md).
golden:
	$(GO) run ./cmd/goldengen -v

# Each smoke run works in its own temporary directory ($$tmp), removed on
# exit whether the run passes or fails. A recipe using it is one shell
# command, so its lines are joined with backslashes.
SMOKE_TMP = set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT

# Store round-trip smoke: the second run must serve every measurement from
# the cache (hit counter > 0, zero misses, zero simulations) and print
# byte-identical output. CI runs this target; needs jq.
smoke:
	$(SMOKE_TMP); \
	$(GO) build -o $$tmp/gpuchar-smoke ./cmd/gpuchar; \
	$$tmp/gpuchar-smoke -exp table2 -store $$tmp/gpuchar-smoke-store.json -metrics >$$tmp/gpuchar-smoke-1.txt 2>$$tmp/gpuchar-smoke-1.json; \
	$$tmp/gpuchar-smoke -exp table2 -store $$tmp/gpuchar-smoke-store.json -metrics >$$tmp/gpuchar-smoke-2.txt 2>$$tmp/gpuchar-smoke-2.json; \
	cmp $$tmp/gpuchar-smoke-1.txt $$tmp/gpuchar-smoke-2.txt; \
	jq -e '.counters.measure_cache_hits > 0' $$tmp/gpuchar-smoke-2.json; \
	jq -e '.counters.measure_cache_misses == 0' $$tmp/gpuchar-smoke-2.json; \
	jq -e '.histograms.stage_simulate_seconds.count == 0' $$tmp/gpuchar-smoke-2.json

# Dense-grid frontier golden-diff smoke: two runs of `gpuchar -exp frontier`
# (cold, then warm from the same store) must print byte-identical frontier
# tables. The cold run must simulate each program exactly once (one capture
# per printed frontier, the whole grid replayed from it), and the warm run
# must re-price the whole ~100-config grid without a single simulation. CI
# runs this target; needs jq.
frontier-smoke:
	$(SMOKE_TMP); \
	$(GO) build -o $$tmp/gpuchar-frontier ./cmd/gpuchar; \
	$$tmp/gpuchar-frontier -exp frontier -reps 1 -store $$tmp/gpuchar-frontier-store.json -metrics >$$tmp/gpuchar-frontier-1.txt 2>$$tmp/gpuchar-frontier-1.json; \
	$$tmp/gpuchar-frontier -exp frontier -reps 1 -store $$tmp/gpuchar-frontier-store.json -metrics >$$tmp/gpuchar-frontier-2.txt 2>$$tmp/gpuchar-frontier-2.json; \
	cmp $$tmp/gpuchar-frontier-1.txt $$tmp/gpuchar-frontier-2.txt; \
	n=$$(grep -c '^Frontier for' $$tmp/gpuchar-frontier-1.txt); \
	jq -e --argjson n "$$n" '$$n > 0 and .counters.simulate_runs_device_K20c == $$n' $$tmp/gpuchar-frontier-1.json; \
	jq -e '.histograms.stage_simulate_seconds.count == 0' $$tmp/gpuchar-frontier-2.json; \
	jq -e '.counters.frontier_replays > 0' $$tmp/gpuchar-frontier-2.json

# gpuchard coalescing + graceful-shutdown smoke: N concurrent identical
# measure requests against the real server must cost exactly one simulation
# and return byte-identical bodies; SIGTERM must save the store. CI runs
# this target; needs curl and jq.
serve-smoke:
	$(SMOKE_TMP); \
	$(GO) build -o $$tmp/gpuchard-smoke ./cmd/gpuchard; \
	./scripts/serve_smoke.sh $$tmp/gpuchard-smoke $$tmp/gpuchard-smoke-store.json

# Sweep-fabric smoke: a 1-coordinator + 3-worker fleet must merge the
# byte-identical /v1/results a standalone server produces and return its
# frontier and attribution job results, the federated
# /metrics must pass the promtool-style lint (cmd/promlint), and killing a
# worker must not change the merged bytes. CI runs this target; needs curl
# and jq.
fabric-smoke:
	$(SMOKE_TMP); \
	$(GO) build -o $$tmp/gpuchard-fabric ./cmd/gpuchard; \
	$(GO) build -o $$tmp/gpuchard-promlint ./cmd/promlint; \
	PROMLINT=$$tmp/gpuchard-promlint ./scripts/fabric_smoke.sh $$tmp/gpuchard-fabric

# Re-baseline the committed BENCH_<workload>.jsonl records: the four
# bench/ workloads over seeds 1-5 (about 9 minutes on 2 vCPUs).
bench:
	./scripts/bench.sh

# Capture-layer lint: no timeline append or kernelTime call outside the
# replay engine's audited sites (grep gate; see scripts/lint_launch.sh).
lint-launch:
	./scripts/lint_launch.sh

# Device-description lint: no removed hard-wired K20c constant referenced as
# a kepler selector outside the device package (see scripts/lint_device.sh).
lint-device:
	./scripts/lint_device.sh

# Attribution smoke: two runs of `gpuchar -exp attrib` against one launch-
# trace directory (cold capture, then warm replay from disk) must print
# byte-identical breakdowns, and the warm process must not simulate at all —
# attribution is a post-processing pass over replayed traces. CI runs this
# target; needs jq.
attrib-smoke:
	$(SMOKE_TMP); \
	$(GO) build -o $$tmp/gpuchar-attrib ./cmd/gpuchar; \
	$$tmp/gpuchar-attrib -exp attrib -programs NB -traces $$tmp/gpuchar-attrib-traces -metrics >$$tmp/gpuchar-attrib-1.txt 2>$$tmp/gpuchar-attrib-1.json; \
	$$tmp/gpuchar-attrib -exp attrib -programs NB -traces $$tmp/gpuchar-attrib-traces -metrics >$$tmp/gpuchar-attrib-2.txt 2>$$tmp/gpuchar-attrib-2.json; \
	cmp $$tmp/gpuchar-attrib-1.txt $$tmp/gpuchar-attrib-2.txt; \
	jq -e '(.counters.simulate_runs_device_K20c // 0) == 0' $$tmp/gpuchar-attrib-2.json; \
	jq -e '.counters.trace_broker_fetch_hits > 0' $$tmp/gpuchar-attrib-2.json; \
	$$tmp/gpuchar-attrib -exp attrib -programs NB -traces $$tmp/gpuchar-attrib-traces -json | jq -e '.[0].program == "NB" and (.[0].attribution.classes | length) == 9' >/dev/null

# Cross-device smoke: the three shipped profiles (K20c, GTX1080, JetsonTX2)
# measure one n-body program and the comparison table must match the
# checked-in expectation byte for byte. CI runs this target.
device-smoke:
	$(SMOKE_TMP); \
	$(GO) build -o $$tmp/gpuchar-device ./cmd/gpuchar; \
	$$tmp/gpuchar-device -exp devices -programs NB -reps 1 >$$tmp/gpuchar-device-smoke.txt; \
	cmp internal/check/testdata/device_smoke_NB.txt $$tmp/gpuchar-device-smoke.txt

ci: vet lint-launch lint-device build race test fuzz
