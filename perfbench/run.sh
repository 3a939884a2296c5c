#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload pingpong --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, and every file the benchmark writes stay
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
