#!/bin/bash
# Builds the benchmark from source and runs it, keeping everything it
# writes inside the checkout: the Go build cache, the binary and the
# run's scratch files all live under .bench_build/ at the root.
# Run from the repository root:  bash bench/run.sh [flags]
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root (needs ./go.mod and ./bench/go.mod)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/dharma-bench" .)
exec "$build/dharma-bench" "$@"
