#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Runs from the root of a checkout:
# builds the benchmark program (a module of its own that imports the
# repo's packages through a replace directive) and hands it the
# arguments. Everything the Go toolchain writes stays under .bench_build
# in the checkout.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR" "$root/.bench_build/bin"
go -C "$root/bench" build -o "$root/.bench_build/bin/mosaic-e2e" .
exec "$root/.bench_build/bin/mosaic-e2e" -root "$root" "$@"
