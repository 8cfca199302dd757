#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given flags, for example
#
#   bash bench/run.sh --workload fct_dumbbell --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache and the binary go to
# .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod || ! -f BENCHMARK.json ]]; then
	echo "bench/run.sh: run from the repository root (go.mod, bench/go.mod and BENCHMARK.json must exist)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
(cd bench && go build -o "$build/ecndelay-bench" .)
exec "$build/ecndelay-bench" "$@"
