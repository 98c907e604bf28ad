#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout, then runs it with
# the given arguments. Run it from anywhere; for example
#
#   bash sigilbench/run.sh --workload dedup-shadow --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's span files stay under
# .bench_build/ at the root of the checkout. The build needs the repository's
# own module one directory up; without it the script fails before measuring.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/sigilbench" && go build -buildvcs=false -o "$out/sigilbench" .) >&2
commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
cd "$root"
SIGILBENCH_COMMIT="$commit" exec "$out/sigilbench" "$@"
