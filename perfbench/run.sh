#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Run from the root of the checkout:
#
#	bash perfbench/run.sh --workload sort-mem --seed 1 --seconds 32 --trace 0
#
# Everything it writes (Go build cache, binary, scratch disk directories)
# goes under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --tmp "$out/tmp" "$@"
