#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments from the root of the checkout. Everything the build and the
# run write stays inside the checkout: the Go build cache, the toolchain's
# temporary files and the binary under .bench_build/, results, traces and
# scratch datasets under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
