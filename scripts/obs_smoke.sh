#!/usr/bin/env bash
# obs_smoke.sh — end-to-end observability smoke test.
#
# Runs a tiny decomposition through the real CLI with -metrics and -trace,
# then validates both artifacts with tools/obscheck: the per-plan counter
# schema, the registered plan-name set, and one trace event per sweep.
# Repeats for HOOI (s3ttmc plans) and HOQRI, and checks that a HOOI run
# with all observability flags off still works (the disarmed path).
#
# Usage: scripts/obs_smoke.sh [workdir]
set -euo pipefail

# A caller-given work directory stays for inspection; a fresh one is
# removed on exit.
dir=${1:-}
owned=
if [[ -z $dir ]]; then
    dir=$(mktemp -d)
    owned=1
fi
mkdir -p "$dir"
cleanup() {
    if [[ -n $owned ]]; then
        rm -rf "$dir"
    fi
}
trap cleanup EXIT

echo "obs-smoke: working in $dir"

go build -o "$dir/symprop" ./cmd/symprop
go build -o "$dir/symprop-gen" ./cmd/symprop-gen
go build -o "$dir/obscheck" ./tools/obscheck

"$dir/symprop-gen" random -order 3 -dim 80 -nnz 800 -seed 5 -out "$dir/x.tns"

iters=6
for algo in hooi hoqri; do
    echo "obs-smoke: $algo with -metrics/-trace"
    "$dir/symprop" decompose -rank 4 -algo "$algo" -iters $iters -tol 0 -seed 3 -workers 2 \
        -metrics "$dir/$algo.metrics.json" -trace "$dir/$algo.trace.jsonl" "$dir/x.tns"
    "$dir/obscheck" -metrics "$dir/$algo.metrics.json" -trace "$dir/$algo.trace.jsonl" -sweeps $iters
done

echo "obs-smoke: disarmed run (no observability flags)"
"$dir/symprop" decompose -rank 4 -algo hooi -iters $iters -tol 0 -seed 3 -workers 2 "$dir/x.tns" >/dev/null

echo "obs-smoke: PASS"
