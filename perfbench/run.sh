#!/usr/bin/env bash
# Builds the placement benchmark from the sources of the checkout it is
# run from and executes it. Run from the repository root:
#
#   bash perfbench/run.sh --workload flow-sb-a --seed 101 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, temporary files) and every
# file the benchmark writes stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
