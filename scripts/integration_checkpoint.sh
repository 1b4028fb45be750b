#!/usr/bin/env bash
# Integration test for sketchd's crash-safe lifecycle (docs/OPERATIONS.md):
#
#   1. boot sketchd with -checkpoint.dir and the concurrent ingest pipeline
#   2. declare streams + a query, ingest a batch, read /answer
#   3. kill -TERM during active ingestion -> the process must exit 0
#      after writing a final checkpoint
#   4. restart sketchd on the same checkpoint dir -> /answer must be
#      byte-identical to the pre-kill answer (sketch linearity)
#   5. GET /snapshot and POST it to /restore on a third sketchd with no
#      checkpoint dir and no /predicates call -> /answer must be
#      byte-identical, and an update through the carried predicate is
#      accepted (snapshots are self-contained)
#
# The mid-kill traffic targets a stream no query references, so it keeps
# the ingest pipeline active without (legitimately) moving the answer.
#
# Run from the repository root: ./scripts/integration_checkpoint.sh
set -euo pipefail

ADDR="127.0.0.1:18431"
BASE="http://$ADDR"
FRESH_ADDR="127.0.0.1:18432"
FRESH="http://$FRESH_ADDR"
WORKDIR="$(mktemp -d)"
CKPT="$WORKDIR/ckpt"
BIN="$WORKDIR/sketchd"
PID=""
FRESH_PID=""

cleanup() {
    for p in "$PID" "$FRESH_PID"; do
        if [[ -n "$p" ]] && kill -0 "$p" 2>/dev/null; then
            kill -9 "$p" 2>/dev/null || true
        fi
    done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

die() { echo "FAIL: $*" >&2; exit 1; }

wait_ready() { # [base URL], default $BASE
    local base="${1:-$BASE}"
    for _ in $(seq 1 100); do
        if curl -fsS "$base/stats" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    die "sketchd did not become ready on $base"
}

start_sketchd() {
    "$BIN" -addr "$ADDR" -tables 5 -buckets 512 \
        -ingest.workers 2 \
        -checkpoint.dir "$CKPT" -checkpoint.interval 1s &
    PID=$!
    wait_ready
}

stop_sketchd() { # graceful TERM; asserts exit code 0
    kill -TERM "$PID"
    local rc=0
    wait "$PID" || rc=$?
    PID=""
    [[ "$rc" -eq 0 ]] || die "sketchd exited $rc on SIGTERM, want 0"
}

post() { # path json
    curl -fsS -X POST -d "$2" "$BASE$1" >/dev/null || die "POST $1 failed"
}

make_batch() { # count -> JSON array of updates on stdout
    local n=$1 sep=""
    printf '['
    for ((i = 0; i < n; i++)); do
        printf '%s{"stream":"F","value":%d},{"stream":"G","value":%d}' \
            "$sep" $((i % 700)) $(((i * 13) % 1000))
        sep=","
    done
    printf ']'
}

echo "== build"
go build -o "$BIN" ./cmd/sketchd

echo "== first boot (fresh checkpoint dir)"
start_sketchd

post /streams '{"name":"F","domain":1000}'
post /streams '{"name":"G","domain":1000}'
post /streams '{"name":"side","domain":1000}' # ingested during the kill; no query reads it
post /predicates '{"name":"low","min":0,"max":499}'
post /queries '{"name":"q","agg":"COUNT","left":{"stream":"F","predicate":"low"},"right":{"stream":"G"}}'

echo "== ingest"
make_batch 400 | curl -fsS -X POST --data-binary @- "$BASE/update" >/dev/null || die "batch update failed"

ANSWER_BEFORE="$(curl -fsS "$BASE/answer?query=q")" || die "answer failed"
echo "   answer before kill: $ANSWER_BEFORE"

echo "== SIGTERM during active ingestion"
# Keep updates flowing into the unqueried stream while the TERM lands:
# the drain path must fold every accepted update and still exit 0.
# Errors are expected once the listener closes — the pusher just stops.
( for _ in $(seq 1 50); do
      curl -s -X POST -d '{"stream":"side","value":7}' "$BASE/update" >/dev/null 2>&1 || break
  done ) &
PUSHER=$!
sleep 0.05
stop_sketchd
wait "$PUSHER" 2>/dev/null || true
[[ -f "$CKPT/current.ckpt" ]] || die "no final checkpoint written"
echo "   clean exit 0, checkpoint present"

echo "== restart from checkpoint"
start_sketchd
ANSWER_AFTER="$(curl -fsS "$BASE/answer?query=q")" || die "recovered answer failed"
echo "   answer after restart: $ANSWER_AFTER"
[[ "$ANSWER_BEFORE" == "$ANSWER_AFTER" ]] \
    || die "recovered answer differs: before=$ANSWER_BEFORE after=$ANSWER_AFTER"

echo "== /snapshot -> /restore into a fresh sketchd, no /predicates call"
curl -fsS "$BASE/snapshot" -o "$WORKDIR/snapshot.json" || die "snapshot failed"
"$BIN" -addr "$FRESH_ADDR" -tables 5 -buckets 512 -ingest.workers 2 &
FRESH_PID=$!
wait_ready "$FRESH"
curl -fsS -X POST --data-binary @"$WORKDIR/snapshot.json" "$FRESH/restore" >/dev/null \
    || die "restore into a fresh sketchd failed"
ANSWER_FRESH="$(curl -fsS "$FRESH/answer?query=q")" || die "answer from the restored sketchd failed"
[[ "$ANSWER_FRESH" == "$ANSWER_AFTER" ]] \
    || die "restored answer differs: snapshot source=$ANSWER_AFTER restored=$ANSWER_FRESH"
curl -fsS -X POST -d '{"stream":"F","value":3}' "$FRESH/update" >/dev/null \
    || die "update through the carried predicate refused"
kill -TERM "$FRESH_PID"
wait "$FRESH_PID" || die "fresh sketchd exited nonzero on SIGTERM"
FRESH_PID=""
echo "   restored answer byte-identical: $ANSWER_FRESH"

# The restored predicate definition must still be live: updates through
# it are accepted and the restored server keeps checkpointing.
post /update '{"stream":"F","value":3}'
curl -fsS -X POST "$BASE/flush" >/dev/null || die "flush failed"
stop_sketchd

# A second restart must also be a fixed point (current/previous rotation).
start_sketchd
ANSWER_FIXED="$(curl -fsS "$BASE/answer?query=q")" || die "third answer failed"
stop_sketchd
[[ -f "$CKPT/previous.ckpt" ]] || die "checkpoint rotation never produced a previous slot"

echo "PASS: graceful shutdown + crash-safe recovery verified"
echo "      (answer before kill == answer after restart: $ANSWER_AFTER)"
