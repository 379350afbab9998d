#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of a checkout:
#
#   bash benchmark/run.sh --workload ra-fs --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays inside the checkout (.bench_build/);
# results go to benchmark/out/ unless -out says otherwise.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="${GOCACHE:-$build/go-cache}" GOMODCACHE="${GOMODCACHE:-$build/go-mod}"
export GOTOOLCHAIN=local GOPROXY=off # nothing to download: the module has no outside dependency
if [ -z "${BENCH_COMMIT:-}" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export BENCH_COMMIT=$commit
fi

# The benchmark is a module of its own (benchmark/go.mod) that replaces
# caf2go with the checkout around it, so this fails, as it must, where the
# simulator's sources are missing.
go build -C "$root/benchmark" -buildvcs=false -o "$build/cafbench" .
exec "$build/cafbench" "$@"
