#!/usr/bin/env bash
# Builds ioserve, iorouter and the fleet benchmark from this checkout, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash fleetbench/run.sh --workload fleet-unique16 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/; the Go
# toolchain's caches and its config and telemetry directory are moved there.
# Telemetry is switched off in that config directory: otherwise the first go
# command in a fresh one starts a detached telemetry process that outlives
# this script.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/go-cache" "$out/tmp" "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/" ./cmd/ioserve ./cmd/iorouter
(cd fleetbench && go build -o "$out/bin/fleetbench" .)
exec "$out/bin/fleetbench" -bin "$out/bin" -work "$out/fleetbench" "$@"
