#!/usr/bin/env bash
# resume_smoke.sh — end-to-end checkpoint/resume smoke test.
#
# Builds the CLI, and for each CLI algorithm (hooi, hoqri) starts a
# decomposition with periodic checkpointing, kills it mid-run with SIGINT,
# resumes from the snapshot, and verifies that the resumed run's convergence
# trace and factor file are byte-identical to an uninterrupted run of the
# same configuration. Exercises the real signal path (NotifyContext →
# cooperative kernel cancel → checkpoint-on-exit → exit status 3) that unit
# tests can't reach in-process.
#
# Usage: scripts/resume_smoke.sh [workdir]
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
pid=
cleanup() {
    if [[ -n $pid ]]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    if [[ -n $owned ]]; then
        rm -rf "$dir"
    fi
}
trap cleanup EXIT

echo "resume-smoke: working in $dir"

go build -o "$dir/symprop" ./cmd/symprop
go build -o "$dir/symprop-gen" ./cmd/symprop-gen

# Big enough that 200 iterations take a couple of seconds — the interrupt
# below must land mid-run.
"$dir/symprop-gen" random -order 3 -dim 400 -nnz 60000 -seed 11 -out "$dir/x.tns"

for algo in hooi hoqri; do
    common=(decompose -rank 8 -algo "$algo" -iters 200 -tol 0 -seed 7 -workers 2)
    ckpt="$dir/$algo.ckpt"

    echo "resume-smoke: $algo straight run"
    "$dir/symprop" "${common[@]}" -convergence "$dir/$algo-straight.csv" \
        -out "$dir/$algo-straight.U" "$dir/x.tns"

    echo "resume-smoke: $algo interrupted run"
    "$dir/symprop" "${common[@]}" -checkpoint "$ckpt" -checkpoint-every 1 \
        "$dir/x.tns" &
    pid=$!
    sleep 0.5
    kill -INT "$pid" 2>/dev/null || true
    rc=0
    wait "$pid" || rc=$?
    pid=
    case $rc in
    3)
        echo "resume-smoke: $algo interrupted with checkpoint (exit 3)"
        ;;
    0)
        # The run finished before the signal landed (fast machine); the
        # checkpoint still exists, so the resume below is a no-op restart
        # at MaxIters and the comparison still holds.
        echo "resume-smoke: $algo run finished before the interrupt; still checking resume"
        ;;
    *)
        echo "resume-smoke: FAIL — $algo interrupted run exited $rc (want 3)" >&2
        exit 1
        ;;
    esac
    if [[ ! -f "$ckpt" ]]; then
        echo "resume-smoke: FAIL — $algo wrote no checkpoint" >&2
        exit 1
    fi

    echo "resume-smoke: $algo resumed run"
    "$dir/symprop" "${common[@]}" -checkpoint "$ckpt" -resume \
        -convergence "$dir/$algo-resumed.csv" -out "$dir/$algo-resumed.U" "$dir/x.tns"

    if ! cmp -s "$dir/$algo-straight.csv" "$dir/$algo-resumed.csv"; then
        echo "resume-smoke: FAIL — $algo traces differ:" >&2
        diff "$dir/$algo-straight.csv" "$dir/$algo-resumed.csv" >&2 || true
        exit 1
    fi
    if ! cmp -s "$dir/$algo-straight.U" "$dir/$algo-resumed.U"; then
        echo "resume-smoke: FAIL — $algo factor files differ" >&2
        exit 1
    fi
    echo "resume-smoke: PASS — $algo resumed trace and factor are bit-identical to the straight run"
done
