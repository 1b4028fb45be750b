#!/usr/bin/env bash
# Integration test for SKSP binary streaming ingest (docs/FORMATS.md
# "SKSP", docs/OPERATIONS.md "Streaming ingest"):
#
#   1. boot sketchd with BOTH listeners: HTTP (-addr) and SKSP
#      (-listen.stream), sharing one engine and one dedupe window
#   2. two tenants (t0, t1) each declare F, G and a COUNT query, then
#      ingest JSON batches over HTTP and a loop of sketchtool probe frames
#      over SKSP (each frame applies 2 updates)
#   3. reconcile exactly: the /stats "stream" section counts every
#      frame update, each tenant's updateCounts equal the JSON plus SKSP
#      updates sent to it, and every enqueued update was applied
#   4. kill-mid-run replay: a raw client sends a frame, the server
#      applies it but the connection dies before the ACK arrives; the
#      reconnect replays the same (clientID, seq) and must get a
#      duplicate ACK with NOTHING applied twice (exactly-once). This is
#      exercised in-process by `go test -run TestStreamReplayDedupe`
#      against the same listener code, then re-checked here end to end
#      by asserting the live server's duplicates counter moves on a
#      scripted replay.
#
# Run from the repository root: ./scripts/integration_stream.sh
set -euo pipefail

ADDR="127.0.0.1:18463"
STREAM_ADDR="127.0.0.1:18464"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
PID=""

cleanup() {
    if [[ -n "$PID" ]] && kill -0 "$PID" 2>/dev/null; then
        kill -9 "$PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

die() { echo "FAIL: $*" >&2; exit 1; }

wait_ready() {
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/stats" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    die "sketchd did not become ready on $ADDR"
}

# field NUM_JSON key -> integer value of "key":N (first match)
field() {
    local v
    v="$(sed -n 's/.*"'"$2"'":\(-\{0,1\}[0-9]\{1,\}\).*/\1/p' <<<"$1" | head -n1)"
    [[ -n "$v" ]] || die "field $2 missing in: $1"
    printf '%s' "$v"
}

# stream_section STATS_JSON -> the /stats "stream" object, its nested
# frameLatency histogram included
stream_section() {
    grep -o '"stream":{[^{}]*"frameLatency":{[^}]*}[^}]*}' <<<"$1"
}

echo "== build"
go build -o "$WORKDIR/sketchd" ./cmd/sketchd
go build -o "$WORKDIR/sketchtool" ./cmd/sketchtool

echo "== in-process kill/replay exactly-once checks (same listener code)"
go test -run 'TestStreamReplayDedupe|TestStreamDrainKeepsAckedFrames|TestRetryDoubleApplyThroughProxy' \
    -count=1 ./cmd/sketchd || die "stream replay/drain unit gates failed"

# No -ingest.* flag: the default deployment, whose pipeline runs one
# shard worker per CPU.
echo "== boot sketchd with HTTP + SKSP listeners"
"$WORKDIR/sketchd" -addr "$ADDR" -listen.stream "$STREAM_ADDR" \
    -tables 5 -buckets 512 &
PID=$!
wait_ready

TENANTS="t0 t1"
JSON_BATCHES=3 # per tenant, each BATCH_N F + BATCH_N G updates
BATCH_N=200
FRAMES=25      # sketchtool probe frames per tenant, each one F + one G update

post() { # path json
    curl -fsS -X POST -d "$2" "$BASE$1" >/dev/null || die "POST $1 failed"
}

make_batch() { # count -> JSON array on stdout (F and G get $1 each)
    local sep=""
    printf '['
    for ((i = 0; i < $1; i++)); do
        printf '%s{"stream":"F","value":%d},{"stream":"G","value":%d}' "$sep" $((i % 4096)) $(((i * 7) % 4096))
        sep=","
    done
    printf ']'
}

for tenant in $TENANTS; do
    post "/t/$tenant/streams" '{"name":"F","domain":4096}'
    post "/t/$tenant/streams" '{"name":"G","domain":4096}'
    post "/t/$tenant/queries" '{"name":"q","agg":"COUNT","left":{"stream":"F"},"right":{"stream":"G"}}'
done

echo "== JSON HTTP batches into both tenants"
for tenant in $TENANTS; do
    for ((b = 0; b < JSON_BATCHES; b++)); do
        make_batch "$BATCH_N" | curl -fsS -X POST --data-binary @- "$BASE/t/$tenant/update" >/dev/null \
            || die "json batch $b into $tenant failed"
    done
done

ST0="$(curl -fsS "$BASE/stats")"
SKSP_BEFORE="$(field "$(stream_section "$ST0")" updates)"
[[ "$SKSP_BEFORE" -eq 0 ]] || die "stream listener counted $SKSP_BEFORE updates before any SKSP traffic"

echo "== SKSP frames into both tenants ($FRAMES sketchtool probe frames each)"
for tenant in $TENANTS; do
    for ((i = 1; i <= FRAMES; i++)); do
        "$WORKDIR/sketchtool" probe -addr "$STREAM_ADDR" -tenant "$tenant" -client "it-$tenant" -seq "$i" >/dev/null \
            || die "sketchtool probe frame $i into $tenant failed"
    done
done
curl -fsS -X POST "$BASE/flush" >/dev/null || die "flush failed"

echo "== /stats reconciles both wire paths exactly"
ST1="$(curl -fsS "$BASE/stats")"
SECTION="$(stream_section "$ST1")" || die "no stream section in /stats"
SKSP_UPDATES="$(field "$SECTION" updates)"
SKSP_WANT=$((2 * FRAMES * 2))
[[ "$SKSP_UPDATES" -eq "$SKSP_WANT" ]] \
    || die "listener counted $SKSP_UPDATES updates, sketchtool probe sent $SKSP_WANT"
[[ "$(field "$SECTION" errors)" -eq 0 ]] || die "stream listener recorded protocol errors"
[[ "$(field "$SECTION" count)" -eq "$(field "$SECTION" frames)" ]] \
    || die "frameLatency timed $(field "$SECTION" count) frames, listener handled $(field "$SECTION" frames)"
PER_STREAM=$((JSON_BATCHES * BATCH_N + FRAMES))
for tenant in $TENANTS; do
    ST_T="$(curl -fsS "$BASE/t/$tenant/stats")" || die "$tenant stats failed"
    COUNTS="$(grep -o '"updateCounts":{[^}]*}' <<<"$ST_T")" || die "no updateCounts for $tenant"
    for s in F G; do
        [[ "$(field "$COUNTS" "$s")" -eq "$PER_STREAM" ]] \
            || die "$tenant $s count $(field "$COUNTS" "$s"), sent $PER_STREAM"
    done
done
INGEST="$(grep -o '"ingest":{[^}]*}' <<<"$ST1")" || die "no ingest section in /stats"
ENQ="$(field "$INGEST" updatesEnqueued)"
[[ "$ENQ" -eq $((2 * 2 * PER_STREAM)) ]] || die "enqueued $ENQ, sent $((2 * 2 * PER_STREAM))"
[[ "$(field "$INGEST" updatesApplied)" -eq "$ENQ" ]] || die "applied != enqueued after flush: $INGEST"
[[ "$(field "$INGEST" updatesUnrouted)" -eq 0 ]] || die "updates went unrouted: $INGEST"

echo "== live replay: a re-sent (clientID, seq) is answered as duplicate"
DUP_BEFORE="$(field "$SECTION" duplicates)"
# sketchtool probe sends one frame, waits for the ACK, then reconnects and
# replays the SAME frame — the reconnect models a client that never saw
# the first ACK. Exactly-once means: second ACK is a duplicate, engine
# applies nothing twice.
"$WORKDIR/sketchtool" probe -addr "$STREAM_ADDR" -tenant t0 -client it-probe -seq 7 -replay \
    || die "sketchtool probe replay failed"
ST2="$(curl -fsS "$BASE/stats")"
SECTION2="$(stream_section "$ST2")"
DUP_AFTER="$(field "$SECTION2" duplicates)"
[[ "$DUP_AFTER" -gt "$DUP_BEFORE" ]] \
    || die "replayed frame was not deduplicated (duplicates $DUP_BEFORE -> $DUP_AFTER)"
# The probe's 2 updates must appear exactly once in the listener total.
PROBE_UPDATES=$(( $(field "$SECTION2" updates) - SKSP_UPDATES ))
[[ "$PROBE_UPDATES" -eq 2 ]] \
    || die "probe applied $PROBE_UPDATES updates, want exactly 2 (replay double-applied or lost)"

echo "== graceful drain with live SKSP connections"
kill -TERM "$PID"
wait "$PID" || die "sketchd did not exit cleanly with a stream listener up"
PID=""

echo "PASS: SKSP ingest, exact reconciliation, and exactly-once replay verified"
