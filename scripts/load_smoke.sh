#!/usr/bin/env bash
# load_smoke.sh — end-to-end traffic-shaped load smoke test (docs/LOADGEN.md).
#
# Starts a real symprop-serve process, drives ~5 seconds of low-rate
# open-loop traffic at it with symprop-load, and asserts the whole
# measurement pipeline end to end:
#
#   1. non-zero completions (-min-completed) against the live server;
#   2. a well-formed extended BENCH_*.json latency section and a
#      well-formed /metrics document, both validated by tools/obscheck;
#   3. benchguard accepts the produced snapshot against a pre-latency
#      baseline (the schema-compatibility contract), and the percentile
#      figure renders.
#
# Usage: scripts/load_smoke.sh [workdir]
set -euo pipefail

# A caller-given work directory stays for inspection; a fresh one is
# removed on exit. The EXIT trap also stops what the script started.
dir=${1:-}
owned=
if [[ -z $dir ]]; then
    dir=$(mktemp -d)
    owned=1
fi
mkdir -p "$dir"
server_pid=
cleanup() {
    if [[ -n $server_pid ]]; then
        kill "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
    if [[ -n $owned ]]; then
        rm -rf "$dir"
    fi
}
trap cleanup EXIT

echo "load-smoke: working in $dir"

go build -o "$dir/symprop-serve" ./cmd/symprop-serve
go build -o "$dir/symprop-load" ./cmd/symprop-load
go build -o "$dir/obscheck" ./tools/obscheck
go build -o "$dir/benchguard" ./tools/benchguard

spool="$dir/spool"
rm -f "$dir/addr"
"$dir/symprop-serve" serve -spool "$spool" -addr 127.0.0.1:0 \
    -addr-file "$dir/addr" -runners 2 -mem off \
    >"$dir/server.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$dir/addr" ]] && break
    sleep 0.1
done
if [[ ! -s "$dir/addr" ]]; then
    echo "load-smoke: FAIL — server never wrote its address" >&2
    cat "$dir/server.log" >&2
    exit 1
fi
server_url="http://$(cat "$dir/addr")"
echo "load-smoke: server up at $server_url (pid $server_pid)"

# A date far in the future so the produced snapshot sorts as head against
# the pre-latency baseline placed next to it.
snapdir="$dir/snapshots"
mkdir -p "$snapdir" "$dir/figures"
snap="$snapdir/BENCH_2099-01-01.json"

"$dir/symprop-load" -server "$server_url" \
    -mix smoke -rate 15 -duration 5s -seed 1 \
    -min-completed 10 \
    -bench-out "$snap" \
    -metrics-out "$dir/metrics.json" \
    -svgdir "$dir/figures" \
    | tee "$dir/load.out"

echo "load-smoke: validating artifacts"
"$dir/obscheck" -bench "$snap" -serve-metrics "$dir/metrics.json"

# The guard must accept a latency-bearing head over a pre-latency
# baseline: the ns/op benchmarks vanished from head (symprop-load does
# not run them), which is exactly what -allow-removed is for here, and
# the latency section must engage without tripping on the old file. The
# fixture's num_cpu is rewritten to match the head snapshot so the guard
# actually compares instead of skipping on a cpu-count change.
ncpu=$(sed -n 's/.*"num_cpu": \([0-9]*\).*/\1/p' "$snap" | head -1)
sed "s/\"num_cpu\": 8/\"num_cpu\": ${ncpu:-8}/" \
    tools/benchguard/testdata/prelatency/BENCH_2026-01-10.json \
    > "$snapdir/BENCH_2026-01-10.json"
"$dir/benchguard" -dir "$snapdir" -allow-removed

if ! ls "$dir"/figures/load_latency_*.svg >/dev/null 2>&1; then
    echo "load-smoke: FAIL — no percentile-over-time figure rendered" >&2
    exit 1
fi

# Graceful stop: drain and expect exit 0.
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=
if [[ $rc -ne 0 ]]; then
    echo "load-smoke: FAIL — server exited $rc on SIGTERM (want 0)" >&2
    cat "$dir/server.log" >&2
    exit 1
fi

echo "load-smoke: PASS"
