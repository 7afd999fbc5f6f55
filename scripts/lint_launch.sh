#!/usr/bin/env bash
# Pricing lint: a simulated run is priced in exactly one place. Programs run
# on a clock-free sim.GPU, which records the launch trace and prices
# nothing; the only way to build a priced sim.Device is
# LaunchTrace.ReplayInto, and its appendLaunch (internal/sim/capture.go) is
# the one site that appends priced launches to a timeline and calls the
# timing model. A new `Launches = append` or kernelTime call elsewhere would
# be a second pricing path that replay bit-identity no longer covers, so
# this grep gate fails CI when one appears. Extend the allowlists only
# together with the matching change to the replay engine (see DESIGN.md,
# "The replay engine").
#
# Usage: scripts/lint_launch.sh
set -euo pipefail

cd "$(dirname "$0")/.."
fail=0

# Timeline construction: Device.Launches may be appended to only by
# appendLaunch (capture.go). internal/power/attrib.go is allowlisted for a
# different type: power.Attribution.Launches is a read-only pricing of an
# already-priced timeline (attribution result rows), not sim timeline
# state.
while IFS= read -r hit; do
    case "${hit%%:*}" in
    internal/sim/capture.go | internal/power/attrib.go) ;;
    *)
        echo "lint_launch: timeline append outside ReplayInto's appendLaunch: $hit" >&2
        fail=1
        ;;
    esac
done < <(grep -rn 'Launches = append' --include='*.go' cmd/ internal/ *.go 2>/dev/null || true)

# Timing model: kernelTime may be called only by appendLaunch (capture.go)
# and its own definition/helpers (timing.go).
while IFS= read -r hit; do
    file=${hit%%:*}
    case "$file" in
    internal/sim/capture.go | internal/sim/timing.go) ;;
    *)
        echo "lint_launch: kernelTime call outside ReplayInto's appendLaunch: $hit" >&2
        fail=1
        ;;
    esac
done < <(grep -rn 'kernelTime(' --include='*.go' cmd/ internal/ *.go 2>/dev/null || true)

if [ "$fail" -ne 0 ]; then
    echo "lint_launch: FAILED — price runs only through LaunchTrace.ReplayInto (internal/sim/capture.go)" >&2
    exit 1
fi
echo "lint_launch: ok" >&2
