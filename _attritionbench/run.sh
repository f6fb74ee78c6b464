#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash _attritionbench/run.sh --workload ingest --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the per-run work
# directories (removed when each run ends).
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

# HOME points into the build directory so the go command's own state (its
# telemetry counters, its env file) stays there too.
(cd "$root/_attritionbench" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$build/attritionbench" .)
exec "$build/attritionbench" "$@"
