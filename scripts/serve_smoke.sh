#!/usr/bin/env bash
# serve_smoke.sh — end-to-end crash-resume smoke test for symprop-serve.
#
# Exercises the job server's whole failure model through real processes
# and real signals (the lifecycle unit tests can't reach SIGKILL):
#
#   1. SIGKILL mid-job, restart over the same spool: the job resumes from
#      its checkpoint and the resumed factor matrix is BIT-IDENTICAL to an
#      uninterrupted control run of the same spec.
#   2. SIGTERM drain: the server stops admission, snapshots the running
#      job back to the queue, and exits 0; yet another restart completes
#      the drained job. No job is ever lost.
#
# Before phase 1, two hostile submits must be refused (400 for a tensor
# header declaring two billion non-zeros, 413 for a body one byte over the
# cap) while the same server process keeps serving.
#
# Usage: scripts/serve_smoke.sh [workdir]
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

echo "serve-smoke: working in $dir"

go build -o "$dir/symprop-serve" ./cmd/symprop-serve
go build -o "$dir/symprop-gen" ./cmd/symprop-gen

# Big enough that 40 HOOI iterations take several seconds — the SIGKILL
# below must land mid-run (same sizing as resume_smoke.sh).
"$dir/symprop-gen" random -order 3 -dim 400 -nnz 60000 -seed 11 -out "$dir/x.tns"

spool="$dir/spool"
# -shards is deprecated and ignored. Passing it keeps an end-to-end proof
# that the flag is still accepted across kill → restart → resume.
submit_args=(-rank 8 -algo hooi -iters 40 -tol 0 -seed 7 -workers 2 -shards 2 -checkpoint-every 1)

start_server() { # start_server <tag> -> sets server_pid, server_url
    local tag=$1
    rm -f "$dir/addr.$tag"
    "$dir/symprop-serve" serve -spool "$spool" -addr 127.0.0.1:0 \
        -addr-file "$dir/addr.$tag" -runners 1 -mem off \
        >"$dir/server.$tag.log" 2>&1 &
    server_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$dir/addr.$tag" ]] && break
        sleep 0.1
    done
    if [[ ! -s "$dir/addr.$tag" ]]; then
        echo "serve-smoke: FAIL — server $tag never wrote its address" >&2
        cat "$dir/server.$tag.log" >&2
        exit 1
    fi
    server_url="http://$(cat "$dir/addr.$tag")"
    echo "serve-smoke: server $tag up at $server_url (pid $server_pid)"
}

# wait_status <id> <pattern> <tries>: poll until the status JSON matches.
wait_status() {
    local id=$1 pattern=$2 tries=$3
    for _ in $(seq 1 "$tries"); do
        if "$dir/symprop-serve" status -server "$server_url" "$id" 2>/dev/null \
            | grep -q "$pattern"; then
            return 0
        fi
        sleep 0.2
    done
    echo "serve-smoke: FAIL — job $id never matched '$pattern'; last status:" >&2
    "$dir/symprop-serve" status -server "$server_url" "$id" >&2 || true
    return 1
}

# expect_code <want> <what> <curl args...>: the request must answer <want>.
expect_code() {
    local want=$1 what=$2 got
    shift 2
    got=$(curl -s -o "$dir/response" -w '%{http_code}' "$@") || true
    if [[ $got != "$want" ]]; then
        echo "serve-smoke: FAIL — $what: HTTP $got, want $want" >&2
        cat "$dir/response" 2>/dev/null >&2 || true
        exit 1
    fi
    echo "serve-smoke: $what -> HTTP $got"
}

start_server a
echo "serve-smoke: phase 0 — hostile submits are refused, the server keeps serving"
expect_code 400 "tensor header declaring 2e9 non-zeros" -H 'Content-Type: application/json' \
    --data-binary '{"rank": 2, "tensor": "sym 3 1000 2000000000\n1 2 3 1.5\n"}' "$server_url/v1/jobs"
# One byte of JSON whitespace past maxSubmitBytes (internal/jobs/server.go).
head -c $(((32 << 20) + 1)) /dev/zero | tr '\0' ' ' |
    expect_code 413 "body one byte over the cap" -H 'Content-Type: application/json' \
        --data-binary @- "$server_url/v1/jobs"
expect_code 200 "healthz after both" "$server_url/healthz"

echo "serve-smoke: phase 1 — SIGKILL mid-job, restart, bit-identical resume"
job=$("$dir/symprop-serve" submit -server "$server_url" "${submit_args[@]}" "$dir/x.tns")
echo "serve-smoke: submitted $job"
# Wait until the run has produced at least one resumable snapshot, so the
# kill below genuinely tests resume (not a from-scratch rerun).
wait_status "$job" '"checkpointed": true' 150
wait_status "$job" '"state": "running"' 50 || {
    echo "serve-smoke: job finished before the kill; resume degenerates to a restart check" >&2
}
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=
echo "serve-smoke: server a killed with SIGKILL mid-run"

start_server b
wait_status "$job" '"state": "succeeded"' 300
"$dir/symprop-serve" result -server "$server_url" -out "$dir/resumed.txt" "$job"

control=$("$dir/symprop-serve" submit -server "$server_url" "${submit_args[@]}" -wait "$dir/x.tns")
"$dir/symprop-serve" result -server "$server_url" -out "$dir/control.txt" "$control"
if cmp -s "$dir/resumed.txt" "$dir/control.txt"; then
    echo "serve-smoke: PASS — resumed factor is bit-identical to the control run"
else
    echo "serve-smoke: FAIL — resumed factor differs from control:" >&2
    diff "$dir/resumed.txt" "$dir/control.txt" | head >&2 || true
    exit 1
fi

echo "serve-smoke: phase 2 — SIGTERM drain exits 0, drained job survives"
job2=$("$dir/symprop-serve" submit -server "$server_url" "${submit_args[@]}" "$dir/x.tns")
wait_status "$job2" '"checkpointed": true' 150
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=
if [[ $rc -ne 0 ]]; then
    echo "serve-smoke: FAIL — drained server exited $rc (want 0)" >&2
    cat "$dir/server.b.log" >&2
    exit 1
fi
echo "serve-smoke: server b drained and exited 0"

start_server c
wait_status "$job2" '"state": "succeeded"' 300
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=
if [[ $rc -ne 0 ]]; then
    echo "serve-smoke: FAIL — idle server exited $rc on SIGTERM (want 0)" >&2
    exit 1
fi

echo "serve-smoke: PASS"
