#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source and
# runs it from the root of the checkout, keeping everything the Go tool
# writes (build cache, temporary files, the binary) in the checkout's
# .bench_build, so that a run reads and writes nothing outside the checkout.
# All arguments go to the benchmark: see README.md.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
