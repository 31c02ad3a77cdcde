#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through, e.g.
#
#   bash perfbench/run.sh --workload topk_hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/:
# the Go build cache, the toolchain's temporary files, its GOPATH and its
# config directory (local telemetry) included, so nothing is written
# outside the checkout. The repository has no module dependencies, so the
# build needs no network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C perfbench build -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" "$@"
