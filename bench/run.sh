#!/usr/bin/env bash
# Builds rumorbench from the checkout it is run in and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload reproduce --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the benchmark's scratch state
# stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "bench/run.sh: run from the repository root (no go.mod and internal/ here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
(cd "$root/bench" && go build -o "$build/rumorbench" ./rumorbench)
exec "$build/rumorbench" "$@"
