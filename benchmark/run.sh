#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# into the checkout's .bench_build directory, then run it with the
# driver's arguments. Every file the Go toolchain writes (build cache,
# module cache, binary) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
# The benchmark is a nested module that replaces "gravel" with the
# parent directory; without the repository around it the build fails
# and the script exits non-zero before printing anything.
(cd "$here" && go build -o "$out/gravel-benchmark" .)
cd "$root"
exec "$out/gravel-benchmark" "$@"
