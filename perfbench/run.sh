#!/bin/sh
# Builds the benchmark from the enclosing checkout and runs it.
#
#   bash perfbench/run.sh --workload paper150 --seed 1 --seconds 40 --trace 0
#
# Run from the checkout root. Everything the build and the run leave
# behind (Go build cache, binary, profiles, checkpoint scratch, trace
# artefacts) goes under .bench_build/ in the checkout.
set -e
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# The module needs nothing from the network: GOPROXY=off makes a missing
# file fail the build at once instead of trying a download.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
