#!/usr/bin/env bash
# Builds sketchd and the skimbench driver from this checkout, then runs
# the driver with the given arguments. Run it from the repository root:
#
#   bash bench/skimbench/run.sh --workload sksp_ingest --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache and every temporary file of a run stay
# under .bench_build/ in the checkout; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
export GOMAXPROCS=2

# With telemetry on, the first go command under a fresh HOME starts a
# detached sidecar process that outlives this script. Turning it off
# keeps every process of a run a waited-for descendant.
go telemetry off
go build -o "$out/sketchd" ./cmd/sketchd
go -C bench/skimbench build -o "$out/skimbench" .
exec "$out/skimbench" -sketchd "$out/sketchd" -tmp "$out/tmp" "$@"
