#!/usr/bin/env bash
# Builds the xtperf benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash xtperf/run.sh --workload impala-frames-grid2 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the runs write
# (Go build cache, binary, result and trace files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/go/cache" "$out/go/tmp" "$out/go/path" "$out/go/home"

(
	cd "$bench"
	export GOCACHE="$out/go/cache" GOTMPDIR="$out/go/tmp" GOPATH="$out/go/path" \
		HOME="$out/go/home" XDG_CONFIG_HOME="$out/go/home" XDG_CACHE_HOME="$out/go/home" \
		GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go build -buildvcs=false -o "$out/bin/xtperf" .
)
exec "$out/bin/xtperf" "$@"
