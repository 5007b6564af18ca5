#!/bin/sh
# Entry point named by BENCHMARK.json: build the harness (its own module,
# stdlib only) and run it from the root of the checkout. Everything the go
# toolchain writes — build cache, link temporaries, telemetry — is kept
# under .bench_build/ in the checkout, so a run touches nothing outside it.
#
#   sh benchmark/run.sh --workload paper_figs --seed 1 --seconds 20 --trace 0
#   sh benchmark/run.sh -list
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/benchmark" && go build -o "$build/harness" .)
exec "$build/harness" "$@"
