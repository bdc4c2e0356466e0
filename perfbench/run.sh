#!/usr/bin/env bash
# Builds the seqavfd request-level benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload sweep-nodes --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, artifact stores, span files) stays under
# .bench_build/ in the current directory; the toolchain must not reach
# the network, so module downloads and toolchain switches are off.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
