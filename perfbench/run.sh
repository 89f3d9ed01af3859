#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload established --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the build's temporary files and the go
# command's config and telemetry go to .bench_build at the checkout root,
# so nothing is written outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
