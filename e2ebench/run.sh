#!/usr/bin/env bash
# Builds the end-to-end coold benchmark and runs it. Run from the
# repository root, for example:
#
#   bash e2ebench/run.sh --workload replan-watch --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the go command's configuration and
# telemetry files and every run's scratch files stay under .bench_build/
# in the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go -C "$root/e2ebench" build -o "$build/e2ebench" .
exec "$build/e2ebench" -root "$root" "$@"
