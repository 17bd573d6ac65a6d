#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload offline --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. The build cache, the binary and every file
# the run writes stay under $CARGO_TARGET_DIR (default .bench_build). A tree
# without the floorplanner sources fails the build and exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
