#!/bin/sh
# Jobs smoke: submit a long checkpointed Monte-Carlo yield job, kill
# ccdacd with SIGKILL mid-run, restart over the same -store-dir, and
# assert the job resumes from its last durable checkpoint and runs to
# completion. A restart from sample 0 would reach the same sample_hash,
# so the drill tells the two apart by the checkpoints the restarted
# daemon writes, then checks the hash against a fresh run of the same
# spec. This is the end-to-end version of internal/serve's
# TestJobCrashResume, run against the real binary (see
# docs/OBSERVABILITY.md, "Async jobs"). A last restart checks that
# the store reclaimed every superseded blob when it opened.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
STORE="$WORK/store"
ADDR=127.0.0.1:18081
trap 'kill -9 $PID 2>/dev/null || true; rm -rf "$WORK"' EXIT

$GO build -o "$WORK/ccdacd" ./cmd/ccdacd

start_daemon() {
    "$WORK/ccdacd" -addr $ADDR -store-dir "$STORE" -job-checkpoint 1000 -log-level warn &
    PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "jobs-smoke: daemon never became ready" >&2
    exit 1
}

field() { # field <name> — extract a scalar field from indented JSON on stdin
    sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/p" | head -1
}

SPEC='{"kind":"yield","bits":8,"samples":100000,"seed":11,"spec_inl":0.05}'

wait_done() { # wait_done <id> — poll a job until done; its record lands in REC
    for _ in $(seq 1 600); do
        REC=$(curl -fsS "http://$ADDR/v1/jobs/$1")
        STATE=$(printf '%s' "$REC" | field state)
        case "$STATE" in
            done) return 0;;
            failed|canceled)
                echo "jobs-smoke: FAIL: job $1 went $STATE: $REC" >&2
                exit 1;;
        esac
        sleep 0.1
    done
    echo "jobs-smoke: FAIL: job $1 never finished (state=$STATE)" >&2
    exit 1
}

echo "jobs-smoke: starting daemon with -store-dir $STORE"
start_daemon

# A long job: ~100k samples at 8 bits with a checkpoint every 1000
# samples gives a wide window of durable progress to crash into.
JOB=$(curl -fsS "http://$ADDR/v1/jobs" -d "$SPEC")
ID=$(printf '%s' "$JOB" | field id)
if [ -z "$ID" ]; then
    echo "jobs-smoke: FAIL: no job id in response: $JOB" >&2
    exit 1
fi
echo "jobs-smoke: submitted job $ID"

# Wait for durable progress: at least 3 checkpoints on disk.
CKS=0
for _ in $(seq 1 200); do
    REC=$(curl -fsS "http://$ADDR/v1/jobs/$ID")
    STATE=$(printf '%s' "$REC" | field state)
    CKS=$(printf '%s' "$REC" | field checkpoints)
    CKS=${CKS:-0}
    if [ "$CKS" -ge 3 ]; then break; fi
    case "$STATE" in
        done|failed|canceled)
            echo "jobs-smoke: FAIL: job went $STATE before the crash window" >&2
            exit 1;;
    esac
    sleep 0.05
done
if [ "$CKS" -lt 3 ]; then
    echo "jobs-smoke: FAIL: never saw 3 checkpoints (got $CKS)" >&2
    exit 1
fi

echo "jobs-smoke: SIGKILL after $CKS checkpoints"
kill -9 $PID

echo "jobs-smoke: restarting over the crashed store"
start_daemon

# The restarted daemon must resume the interrupted job from its last
# checkpoint and finish it.
wait_done "$ID"
if [ "$(printf '%s' "$REC" | field resumed)" != "true" ]; then
    echo "jobs-smoke: FAIL: finished job does not report resumed: $REC" >&2
    exit 1
fi
if [ "$(printf '%s' "$REC" | field done_samples)" != "100000" ]; then
    echo "jobs-smoke: FAIL: resumed job did not complete all samples: $REC" >&2
    exit 1
fi
HASH=$(printf '%s' "$REC" | field sample_hash)
if [ -z "$HASH" ]; then
    echo "jobs-smoke: FAIL: no sample_hash in resumed result: $REC" >&2
    exit 1
fi
METRICS=$(curl -fsS "http://$ADDR/metrics")
if ! printf '%s\n' "$METRICS" | grep -q '^ccdac_jobs_resumed_total 1'; then
    echo "jobs-smoke: FAIL: metrics do not report one resumed job" >&2
    exit 1
fi
# The job checkpoints every 1000 of its 100000 samples, 99 times in
# all. A resume from checkpoint S writes only the 99 - S after it; a
# restart from sample 0 writes all 99 again.
WRITTEN=$(printf '%s\n' "$METRICS" | sed -n 's/^ccdac_jobs_checkpoints_total \([0-9]*\).*/\1/p')
if [ -z "$WRITTEN" ] || [ "$WRITTEN" -ge 99 ]; then
    echo "jobs-smoke: FAIL: restarted daemon wrote ${WRITTEN:-no} checkpoints, want fewer than 99 (the job restarted instead of resuming)" >&2
    exit 1
fi

# A fresh run of the same spec must reach the resumed job's hash.
FRESH=$(curl -fsS "http://$ADDR/v1/jobs" -d "$SPEC" | field id)
wait_done "$FRESH"
if [ "$(printf '%s' "$REC" | field sample_hash)" != "$HASH" ]; then
    echo "jobs-smoke: FAIL: fresh run sample_hash differs from the resumed job's $HASH: $REC" >&2
    exit 1
fi

# Superseded job records and checkpoints are reclaimed when the store
# opens: after one more restart, no blob may outlive the index entries
# that point to blobs. The drill has superseded ~100 checkpoints and
# records by now.
blob_files() { find "$STORE/blobs" -type f | wc -l | tr -d ' '; }
BEFORE=$(blob_files)
kill $PID
wait $PID 2>/dev/null || true
echo "jobs-smoke: restarting over $BEFORE blob files"
start_daemon
AFTER=$(blob_files)
INDEXED=$(curl -fsS "http://$ADDR/metrics" | sed -n 's/^ccdac_store_index_entries \([0-9]*\).*/\1/p')
if [ -z "$INDEXED" ] || [ "$AFTER" -gt "$INDEXED" ]; then
    echo "jobs-smoke: FAIL: $AFTER blob files after restart, more than the ${INDEXED:-unknown} index entries" >&2
    exit 1
fi

kill -9 $PID 2>/dev/null || true
echo "jobs-smoke: PASS (resumed after $CKS checkpoints, $WRITTEN written after restart, sample_hash $HASH, blobs $BEFORE -> $AFTER for $INDEXED index entries)"
