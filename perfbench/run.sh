#!/usr/bin/env bash
# Builds analogflowd and the perfbench load generator from the checkout this
# is run in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload grid-hot --seed 7 --seconds 10 --trace 0
#   bash perfbench/run.sh --steady 10 --seed 101     # steadiness report
#
# Run it from the root of the checkout.  Build outputs, the Go build cache,
# the go command's temporary files and its own state stay under .bench_build/
# in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out" "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOMODCACHE="$root/.bench_build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# With telemetry on (its default is "local"), the go command forks a detached
# telemetry process that can outlive this script; turn it off for the
# go command's state under .bench_build/config.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/analogflowd" ./cmd/analogflowd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/analogflowd" -out "$out" "$@"
