#!/usr/bin/env bash
# Builds heperf from this checkout's sources and runs it with the given
# arguments from the checkout root, e.g.
#
#   bash cmd/heperf/run.sh --workload traverse --seed 1 --seconds 20 --trace 0
#   bash cmd/heperf/run.sh -seed 1 -out run.json
#   bash cmd/heperf/run.sh compare base/*.json change/*.json
#
# The build writes only under .bench_build/ at the checkout root (Go build
# cache, temporary files, the go command's telemetry counters, which live
# under the user config directory, and the binary) and never touches the
# network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$here" build -o "$out/heperf" .
cd "$root"
exec "$out/heperf" "$@"
