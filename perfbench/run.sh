#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload analyst --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. The Go build cache, the binary and
# the span files all stay under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
