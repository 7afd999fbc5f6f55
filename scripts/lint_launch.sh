#!/usr/bin/env bash
# Capture-layer lint: the launch-trace replay engine is sound only while
# every path that creates timeline state or prices time goes through the
# audited sites in internal/sim. A new `Launches = append` or kernelTime
# call elsewhere would bypass the capture hooks (recordLaunch / the
# clock-sensitivity detector) and silently break replay bit-identity, so
# this grep gate fails CI when one appears. Extend the allowlists only
# together with the matching capture-layer change (see DESIGN.md, "The
# replay engine").
#
# Usage: scripts/lint_launch.sh
set -euo pipefail

cd "$(dirname "$0")/.."
fail=0

# Timeline construction: Device.Launches may be appended to only by
# appendLaunch (capture.go), the one launch tail the live path (engine.go,
# behind recordLaunch) and the replay path share. internal/power/attrib.go
# is allowlisted for a different type: power.RunAttribution.Launches is a
# read-only pricing of an already-captured timeline (attribution result
# rows), not sim timeline state — appending there cannot bypass
# recordLaunch or the clock-sensitivity detector.
while IFS= read -r hit; do
    case "${hit%%:*}" in
    internal/sim/capture.go | internal/power/attrib.go) ;;
    *)
        echo "lint_launch: timeline append outside the capture layer: $hit" >&2
        fail=1
        ;;
    esac
done < <(grep -rn 'Launches = append' --include='*.go' cmd/ internal/ *.go 2>/dev/null || true)

# Timing model: kernelTime may be called only by appendLaunch (capture.go)
# and its own definition/helpers (timing.go), plus sim tests.
while IFS= read -r hit; do
    file=${hit%%:*}
    case "$file" in
    internal/sim/capture.go | internal/sim/timing.go) ;;
    internal/sim/*_test.go) ;;
    *)
        echo "lint_launch: kernelTime call outside the capture layer: $hit" >&2
        fail=1
        ;;
    esac
done < <(grep -rn 'kernelTime(' --include='*.go' cmd/ internal/ *.go 2>/dev/null || true)

if [ "$fail" -ne 0 ]; then
    echo "lint_launch: FAILED — route new launch/timing code through internal/sim's capture layer" >&2
    exit 1
fi
echo "lint_launch: ok" >&2
