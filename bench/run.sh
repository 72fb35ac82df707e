#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the working
# directory (the repository root) and runs it with the given arguments.
# Build cache, temporary files and the binary all stay inside the checkout:
#   bash bench/run.sh -workload sz-smooth -seed 1 -seconds 10 -trace 0
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/lcpio-bench" .
exec "$build/lcpio-bench" "$@"
