#!/usr/bin/env bash
# Builds shelleyd and the benchmark program from this checkout, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-check --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh -compare OLD_RESULTS_DIR NEW_RESULTS_DIR
#
# Run it from the repository root. Everything it builds or writes stays
# under the build directory (CARGO_TARGET_DIR when set, else
# .bench_build), including the Go build cache.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off GOPROXY=off CGO_ENABLED=0

go build -buildvcs=false -o "$build/shelleyd" ./cmd/shelleyd
(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" -daemon "$build/shelleyd" -out "$build/perfbench-out" "$@"
