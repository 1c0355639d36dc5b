#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root:
#
#   bash perfbench/run.sh --workload serve-scan --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and every file a run writes stay
# under .bench_build/ in the checkout. Without the repository's sources
# next to it the build fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The Go tool's build cache, temporary files, module cache and
# configuration (including its telemetry counters) live there too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
