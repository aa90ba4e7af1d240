#!/usr/bin/env bash
# Builds the stashperf benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash stashperf/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the Go tool's own configuration
# (XDG_CONFIG_HOME, where it keeps telemetry) stay under .bench_build/ in
# the checkout. Without the repository's sources beside stashperf/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go -C "$root/stashperf" build -o "$out/stashperf" .
exec "$out/stashperf" "$@"
