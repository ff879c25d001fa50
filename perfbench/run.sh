#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload matrix_quick --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays inside the checkout: the Go build cache and the binary go to
# .bench_build/, run artifacts to .bench_out/. The first run in a fresh
# checkout compiles the standard library into that cache and takes a few
# minutes; later runs reuse it.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" "$@"
