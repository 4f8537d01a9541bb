#!/usr/bin/env bash
# Builds the benchmark and the ccdacd daemon from this checkout into
# .bench_build, then runs one workload from the repository root:
#
#   bash perfbench/run.sh --workload flow --seed 1 --seconds 30 --trace 0
#
# Every build artifact, cache and temporary file stays under
# .bench_build. The last line of standard output is the JSON result.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a ccdac checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
export GOSUMDB=off GOENV=off GOWORK=off CGO_ENABLED=0
(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/ccdacd" ccdac/cmd/ccdacd
) >&2
exec "$out/perfbench" --ccdacd "$out/ccdacd" "$@"
