#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source and
# runs it with the given arguments. Everything the Go toolchain writes
# (build cache, temporary files) is kept under .bench_build in the checkout,
# and the user's Go configuration is ignored, so a run reads and writes
# nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
if [ ! -f ../go.mod ] || [ ! -d ../internal ]; then
	echo "benchmark: the program under test (../go.mod, ../internal) is not in this checkout" >&2
	exit 1
fi
out="$(cd .. && pwd)/.bench_build"
# Go's telemetry is switched off before the first go command runs: with a
# fresh configuration directory the toolchain would otherwise start a
# detached child of its own that outlives the build.
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
go build -o "$out/linefs-benchmark" .
cd ..
exec "$out/linefs-benchmark" "$@"
