#!/usr/bin/env bash
# Builds regserver and the benchmark from source, then runs one benchmark
# invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-reads --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, data directories, logs, spans and
# reports all go under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOENV=off
go build -C "$root" -o "$build/regserver" ./cmd/regserver
go build -C "$here" -o "$build/perfbench" .
exec "$build/perfbench" -regserver "$build/regserver" -build "$build" "$@"
