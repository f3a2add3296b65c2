#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds ./benchmark from source into
# .bench_build/ inside the checkout (Go's build cache too, so nothing is
# written outside it) and runs it with the arguments given. Run from the
# repo root. By hand, `go run ./benchmark …` does the same.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
