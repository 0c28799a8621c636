#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (binary, Go build
# cache and module cache all inside the checkout) and runs it from the
# repository root. Usage: bash bench/run.sh --workload <name> [--seed N]
# [--seconds S] [--trace 0|1], or bash bench/run.sh compare|aa ...
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/nwbench" .)
cd "$root"
exec "$build/nwbench" "$@"
