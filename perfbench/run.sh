#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload table2-native --seed 1 --seconds 10 --trace 0
# Every build and run artifact stays under .bench_build in the current
# directory; nothing is fetched (GOPROXY=off, GOTOOLCHAIN=local). VCS
# stamping is off, so the build neither needs nor consults git: a checkout
# that sits inside another repository, or one git refuses to read, builds
# the same.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
