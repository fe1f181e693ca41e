#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the benchmark's command. Everything the build writes (compiler
# cache, temporary files, the binary) goes under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
#
#   bash benchmark/run.sh --workload hit_storm --seed 1 --seconds 25 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# The report carries the commit it measured; a checkout that is not a git
# repository reports "unknown".
BENCH_COMMIT="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)"
export BENCH_COMMIT

# The module needs nothing but the standard library and the repository
# itself (go.mod replaces icache with ..), so the build never downloads.
env GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off \
    GOPROXY=off GOTOOLCHAIN=local \
    go build -C "$here" -buildvcs=false -o "$build/icache-benchmark" .

cd "$root"
exec "$build/icache-benchmark" "$@"
