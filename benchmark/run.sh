#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout (toolchain caches included, so nothing is written outside it)
# and run it with the given arguments. Fails, printing no result, when the
# engine's source is not there to build against.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/acheron-benchmark" .) >&2
exec "$build/acheron-benchmark" "$@"
