#!/usr/bin/env bash
# shard_smoke.sh — end-to-end sharding smoke test.
#
# Runs the same decomposition through the real CLI unsharded and with
# -shards 4 and requires byte-identical factor files — the bit-identity
# contract of the shard map (docs/SHARDING.md) through the full binary,
# not just the package tests. The sharded run's -metrics artifact must
# pass obscheck, which pins the per-shard plan names (shard.fanout,
# s3ttmc.shard[i], shard.gram, shard.tc) to the registered roster. A
# budgeted pass repeats the comparison under SYMPROP_MEM_BUDGET=30000,
# where the kernels shrink their spill buffers: a sharded call is charged
# exactly like an unsharded one, so the factors must still match. Finally
# the shard package's tests run under -race: the fan-out is the one place
# P engines share the caller's caches, spill buffers and output.
#
# Usage: scripts/shard_smoke.sh [workdir]
set -euo pipefail

dir=${1:-$(mktemp -d)}
mkdir -p "$dir"
echo "shard-smoke: working in $dir"

go build -o "$dir/symprop" ./cmd/symprop
go build -o "$dir/symprop-gen" ./cmd/symprop-gen
go build -o "$dir/obscheck" ./tools/obscheck

"$dir/symprop-gen" random -order 3 -dim 80 -nnz 800 -seed 5 -out "$dir/x.tns"

iters=6
for algo in hooi hoqri; do
    echo "shard-smoke: $algo unsharded vs -shards 4"
    "$dir/symprop" decompose -rank 4 -algo "$algo" -iters $iters -tol 0 -seed 3 -workers 2 \
        -out "$dir/$algo.single.u" "$dir/x.tns" >/dev/null
    "$dir/symprop" decompose -rank 4 -algo "$algo" -iters $iters -tol 0 -seed 3 -workers 2 \
        -shards 4 -out "$dir/$algo.sharded.u" \
        -metrics "$dir/$algo.sharded.metrics.json" -trace "$dir/$algo.sharded.trace.jsonl" \
        "$dir/x.tns" >/dev/null
    if ! cmp -s "$dir/$algo.single.u" "$dir/$algo.sharded.u"; then
        echo "shard-smoke: FAIL: $algo factors differ between shards=4 and single engine" >&2
        exit 1
    fi
    "$dir/obscheck" -metrics "$dir/$algo.sharded.metrics.json" \
        -trace "$dir/$algo.sharded.trace.jsonl" -sweeps $iters
done

budget=30000
for algo in hooi hoqri; do
    echo "shard-smoke: $algo unsharded vs -shards 4 under SYMPROP_MEM_BUDGET=$budget"
    SYMPROP_MEM_BUDGET=$budget "$dir/symprop" decompose -rank 4 -algo "$algo" -iters $iters -tol 0 -seed 3 \
        -workers 2 -out "$dir/$algo.budget.single.u" "$dir/x.tns" >/dev/null
    SYMPROP_MEM_BUDGET=$budget "$dir/symprop" decompose -rank 4 -algo "$algo" -iters $iters -tol 0 -seed 3 \
        -workers 2 -shards 4 -out "$dir/$algo.budget.sharded.u" "$dir/x.tns" >/dev/null
    if ! cmp -s "$dir/$algo.budget.single.u" "$dir/$algo.budget.sharded.u"; then
        echo "shard-smoke: FAIL: $algo factors differ between shards=4 and single engine at budget $budget" >&2
        exit 1
    fi
done

echo "shard-smoke: shard package under -race"
go test -race ./internal/shard/

echo "shard-smoke: PASS"
