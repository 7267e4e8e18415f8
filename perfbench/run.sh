#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload hetis-chat --seed 1 --seconds 20 --trace 0
# Everything it writes stays under .bench_build/: the binary, the Go build
# cache and temporary files, the toolchain's telemetry counters (which live
# under the user config directory) and the span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The benchmark's module resolves hetis from the parent directory, so the build
# fails (and nothing is measured) unless the repository's source is there.
# The revision stamp is provenance only: if version control cannot be
# queried, build without it.
(cd "$root/perfbench" && { go build -o "$out/hetisperf" . 2>/dev/null ||
	go build -buildvcs=false -o "$out/hetisperf" .; })
exec "$out/hetisperf" -out "$out" "$@"
