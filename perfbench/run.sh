#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hoqri-fused --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
