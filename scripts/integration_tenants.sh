#!/usr/bin/env bash
# Integration test for multi-tenant namespaces (docs/OPERATIONS.md
# "Tenants & quotas"):
#
#   1. boot sketchd with the concurrent ingest pipeline
#   2. two tenants declare IDENTICAL stream + query names, ingest
#      different deterministic data concurrently -> /t/{x}/answer must
#      differ, and each tenant's /t/{x}/stats updateCounts must equal
#      exactly what that tenant's client pushed (no cross-tenant bleed)
#   3. install a queue-share quota on one tenant -> an over-quota batch
#      is a 429 with Retry-After, nothing applied, counted only in that
#      tenant's rejected; the other tenant is untouched
#
# Run from the repository root: ./scripts/integration_tenants.sh
set -euo pipefail

ADDR="127.0.0.1:18443"
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

post() { # path json
    curl -fsS -X POST -d "$2" "$BASE$1" >/dev/null || die "POST $1 failed"
}

# field NUM_JSON key -> integer value of "key":N (first match)
field() {
    local v
    v="$(sed -n 's/.*"'"$2"'":\(-\{0,1\}[0-9]\{1,\}\).*/\1/p' <<<"$1" | head -n1)"
    [[ -n "$v" ]] || die "field $2 missing in: $1"
    printf '%s' "$v"
}

# stream_count STATS_JSON stream -> that stream's updateCounts entry
stream_count() {
    local counts
    counts="$(grep -o '"updateCounts":{[^}]*}' <<<"$1")" || die "no updateCounts in: $1"
    field "$counts" "$2"
}

make_batch() { # tenant count -> JSON array on stdout (F and G get $2 each)
    local n=$2 sep=""
    printf '['
    for ((i = 0; i < n; i++)); do
        printf '%s{"stream":"F","value":7},{"stream":"G","value":7}' "$sep"
        sep=","
    done
    printf ']'
}

echo "== build"
go build -o "$WORKDIR/sketchd" ./cmd/sketchd

echo "== boot sketchd (concurrent pipeline)"
"$WORKDIR/sketchd" -addr "$ADDR" -tables 5 -buckets 512 \
    -ingest.workers 2 &
PID=$!
wait_ready

echo "== two tenants, identical names, different data (concurrently)"
for tenant in alpha beta; do
    post "/t/$tenant/streams" '{"name":"F","domain":1000}'
    post "/t/$tenant/streams" '{"name":"G","domain":1000}'
    post "/t/$tenant/queries" '{"name":"q","agg":"COUNT","left":{"stream":"F"},"right":{"stream":"G"}}'
done
ALPHA_N=40 # alpha pushes 40 F + 40 G at one value -> COUNT estimate 1600
BETA_N=9   # beta pushes 9 + 9 of the same value    -> COUNT estimate 81
make_batch alpha $ALPHA_N | curl -fsS -X POST --data-binary @- "$BASE/t/alpha/update" >/dev/null &
A=$!
make_batch beta $BETA_N | curl -fsS -X POST --data-binary @- "$BASE/t/beta/update" >/dev/null &
B=$!
wait "$A" || die "alpha ingest failed"
wait "$B" || die "beta ingest failed"
curl -fsS -X POST "$BASE/flush" >/dev/null || die "flush failed"

ANS_ALPHA="$(curl -fsS "$BASE/t/alpha/answer?query=q")" || die "alpha answer failed"
ANS_BETA="$(curl -fsS "$BASE/t/beta/answer?query=q")" || die "beta answer failed"
EST_ALPHA="$(field "$ANS_ALPHA" estimate)"
EST_BETA="$(field "$ANS_BETA" estimate)"
echo "   alpha estimate: $EST_ALPHA   beta estimate: $EST_BETA"
[[ "$EST_ALPHA" -eq $((ALPHA_N * ALPHA_N)) ]] || die "alpha estimate $EST_ALPHA, want $((ALPHA_N * ALPHA_N))"
[[ "$EST_BETA" -eq $((BETA_N * BETA_N)) ]] || die "beta estimate $EST_BETA, want $((BETA_N * BETA_N)) (cross-tenant bleed?)"

echo "== per-tenant counters reconcile exactly"
ST_ALPHA="$(curl -fsS "$BASE/t/alpha/stats")" || die "alpha stats failed"
ST_BETA="$(curl -fsS "$BASE/t/beta/stats")" || die "beta stats failed"
[[ "$(stream_count "$ST_ALPHA" F)" -eq "$ALPHA_N" ]] || die "alpha F count $(stream_count "$ST_ALPHA" F), client sent $ALPHA_N"
[[ "$(stream_count "$ST_ALPHA" G)" -eq "$ALPHA_N" ]] || die "alpha G count mismatch"
[[ "$(stream_count "$ST_BETA" F)" -eq "$BETA_N" ]] || die "beta F count $(stream_count "$ST_BETA" F), client sent $BETA_N"
[[ "$(field "$ST_ALPHA" rejected)" -eq 0 ]] || die "alpha rejected nonzero before any quota"

echo "== queue-share quota: over-quota batch is a 429 + Retry-After"
post /tenants '{"name":"beta","quota":{"maxPendingUpdates":50}}'
HDRS="$WORKDIR/429.headers"
CODE="$(make_batch beta 100 | curl -s -o /dev/null -D "$HDRS" -w '%{http_code}' \
    -X POST --data-binary @- "$BASE/t/beta/update")"
[[ "$CODE" == "429" ]] || die "over-quota batch returned $CODE, want 429"
grep -qi '^retry-after:' "$HDRS" || die "429 without Retry-After header"
curl -fsS -X POST "$BASE/flush" >/dev/null

ST_BETA2="$(curl -fsS "$BASE/t/beta/stats")"
[[ "$(field "$ST_BETA2" rejected)" -eq 200 ]] || die "beta rejected $(field "$ST_BETA2" rejected), want 200 (admission is atomic: the whole 100 F + 100 G batch is rejected)"
[[ "$(stream_count "$ST_BETA2" F)" -eq "$BETA_N" ]] || die "rejected batch leaked into beta's counts"
ST_ALPHA2="$(curl -fsS "$BASE/t/alpha/stats")"
[[ "$(field "$ST_ALPHA2" rejected)" -eq 0 ]] || die "beta's quota charged alpha"
[[ "$(stream_count "$ST_ALPHA2" F)" -eq "$ALPHA_N" ]] || die "alpha counts moved"
# Under the cap beta still works.
CODE="$(make_batch beta 10 | curl -s -o /dev/null -w '%{http_code}' \
    -X POST --data-binary @- "$BASE/t/beta/update")"
[[ "$CODE" == "200" ]] || die "under-quota batch returned $CODE, want 200"

kill -TERM "$PID"
wait "$PID" || die "sketchd did not exit cleanly"
PID=""

echo "PASS: tenant isolation, quota 429, and per-tenant reconciliation verified"
