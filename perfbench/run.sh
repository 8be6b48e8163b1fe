#!/usr/bin/env bash
# Builds cmd/cmcluster and the benchmark from the source in the current
# directory (the repository root), then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload tcp-play --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span dumps stay under
# .bench_build/perfbench.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/cmcluster" ]; then
	echo "perfbench: run from the repository root; no go.mod or cmd/cmcluster in $root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/home/.config/go/telemetry"

# Keep every file the Go toolchain writes inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
# With telemetry on, each go command forks a detached child that can
# outlive this script; mode "off" keeps it from starting.
echo off > "$out/home/.config/go/telemetry/mode"

go build -o "$out/cmcluster" ./cmd/cmcluster >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --daemon "$out/cmcluster" --out "$out" "$@"
