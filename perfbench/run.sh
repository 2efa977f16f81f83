#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it.
# Run from the repository root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, store directories and traces.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (it needs go.mod and the program's sources)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	GOENV=off GOWORK=off

commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
PERFBENCH_GIT_COMMIT="$commit" exec "$build/perfbench" --root "$root" "$@"
