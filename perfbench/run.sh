#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments (--workload, --seed, --seconds, --trace). Run it
# from the checkout root: bash perfbench/run.sh --workload hammer-campaign
# --seed 1 --seconds 30 --trace 0. Everything the build and the run
# write stays under .bench_build/ in that checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
