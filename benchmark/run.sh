#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is the command BENCHMARK.json names. Everything the build leaves
# behind — the binary, Go's build cache and temporary files — goes under
# .bench_build/ at the root of the checkout, which .gitignore names, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="${GOCACHE:-$out/gocache}" GOPATH="${GOPATH:-$out/gopath}" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
