#!/usr/bin/env bash
# Integration test for cluster mode (docs/OPERATIONS.md "Cluster mode"):
#
#   1. boot 3 shard sketchds and 1 merger over a static JSON ring,
#      plus a single-node reference sketchd with the same sketch config
#   2. register the same schema through the merger (broadcast) and on
#      the reference node; a windowed query through the merger is a 400
#      that reaches no shard; ingest an identical seeded shape into both
#   3. the merger's global /answer must be BIT-IDENTICAL to the
#      single-node answer — sketch linearity as a multi-process system
#   4. SIGKILL one shard -> /answer must still be 200, reporting
#      "answered":2,"of":3 and degraded confidence (never an error)
#   5. with every shard killed -> /answer is 503 with Retry-After
#
# Run from the repository root: ./scripts/integration_cluster.sh
set -euo pipefail

PORT_S0=18461
PORT_S1=18462
PORT_S2=18463
PORT_REF=18464
PORT_M=18465
MBASE="http://127.0.0.1:$PORT_M"
RBASE="http://127.0.0.1:$PORT_REF"
WORKDIR="$(mktemp -d)"
PIDS=()

cleanup() {
    for pid in "${PIDS[@]-}"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

die() { echo "FAIL: $*" >&2; exit 1; }

wait_ready() { # base-url
    for _ in $(seq 1 100); do
        if curl -fsS "$1/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    die "server did not become ready on $1"
}

field() { # json key -> integer value of "key":N (first match)
    local v
    v="$(sed -n 's/.*"'"$2"'":\(-\{0,1\}[0-9]\{1,\}\).*/\1/p' <<<"$1" | head -n1)"
    [[ -n "$v" ]] || die "field $2 missing in: $1"
    printf '%s' "$v"
}

post() { # base path json
    curl -fsS -X POST -d "$3" "$1$2" >/dev/null || die "POST $1$2 failed"
}

# The seeded shape: deterministic, mildly skewed, fixed weights — the
# same batch goes to the merger and the reference node byte-for-byte.
make_batch() {
    local sep="" i
    printf '['
    for ((i = 0; i < 500; i++)); do
        printf '%s{"stream":"F","value":%d},{"stream":"G","value":%d,"weight":2}' \
            "$sep" $(((i * i) % 811)) $(((i * 13 + 5) % 1024))
        sep=","
    done
    printf ']'
}

echo "== build"
go build -o "$WORKDIR/sketchd" ./cmd/sketchd

echo "== boot 3 shards + reference node"
for port in $PORT_S0 $PORT_S1 $PORT_S2; do
    "$WORKDIR/sketchd" -role shard -addr "127.0.0.1:$port" \
        -tables 5 -buckets 512 -seed 42 \
        -ingest.workers 2 &
    PIDS+=($!)
done
S2_PID="${PIDS[2]}"
"$WORKDIR/sketchd" -addr "127.0.0.1:$PORT_REF" -tables 5 -buckets 512 -seed 42 &
PIDS+=($!)
for port in $PORT_S0 $PORT_S1 $PORT_S2 $PORT_REF; do
    wait_ready "http://127.0.0.1:$port"
done

echo "== boot merger (every answer pulls fresh shard sketches)"
cat >"$WORKDIR/ring.json" <<EOF
{"shards":[
  {"name":"s0","addr":"http://127.0.0.1:$PORT_S0"},
  {"name":"s1","addr":"http://127.0.0.1:$PORT_S1"},
  {"name":"s2","addr":"http://127.0.0.1:$PORT_S2"}
]}
EOF
"$WORKDIR/sketchd" -role merger -addr "127.0.0.1:$PORT_M" \
    -cluster.config "$WORKDIR/ring.json" -cluster.timeout 5s &
PIDS+=($!)
wait_ready "$MBASE"

echo "== register schema (merger broadcast + reference)"
for base in "$MBASE" "$RBASE"; do
    post "$base" /streams '{"name":"F","domain":1024}'
    post "$base" /streams '{"name":"G","domain":1024}'
    post "$base" /queries '{"name":"q","agg":"COUNT","left":{"stream":"F"},"right":{"stream":"G"}}'
done

echo "== a windowed query is refused by the merger and registered on no shard"
WQ='{"name":"w","agg":"COUNT","left":{"stream":"F","windowLen":100,"windowBuckets":4},"right":{"stream":"G"}}'
CODE="$(curl -s -o "$WORKDIR/windowed.out" -w '%{http_code}' -X POST -d "$WQ" "$MBASE/queries")"
[[ "$CODE" == "400" ]] || die "windowed query through the merger returned $CODE, want 400: $(cat "$WORKDIR/windowed.out")"
for port in $PORT_S0 $PORT_S1 $PORT_S2; do
    QS="$(curl -fsS "http://127.0.0.1:$port/queries")" || die "GET /queries on shard :$port failed"
    if grep -q '"w"' <<<"$QS"; then
        die "shard :$port lists the refused windowed query: $QS"
    fi
done

echo "== seeded ingest into cluster and reference"
make_batch >"$WORKDIR/batch.json"
curl -fsS -X POST --data-binary @"$WORKDIR/batch.json" "$MBASE/update" >/dev/null \
    || die "cluster ingest failed"
curl -fsS -X POST --data-binary @"$WORKDIR/batch.json" "$RBASE/update" >/dev/null \
    || die "reference ingest failed"
curl -fsS -X POST "$MBASE/flush" >/dev/null || die "cluster flush failed"
curl -fsS -X POST "$RBASE/flush" >/dev/null || die "reference flush failed"

echo "== healthy global answer must be bit-identical to single-node"
ANS_M="$(curl -fsS "$MBASE/answer?query=q")" || die "cluster answer failed"
ANS_R="$(curl -fsS "$RBASE/answer?query=q")" || die "reference answer failed"
EST_M="$(field "$ANS_M" estimate)"
EST_R="$(field "$ANS_R" estimate)"
echo "   cluster estimate: $EST_M   single-node estimate: $EST_R"
[[ "$EST_M" -eq "$EST_R" ]] || die "cluster estimate $EST_M != single-node $EST_R (linearity broken)"
[[ "$(field "$ANS_M" answered)" -eq 3 ]] || die "healthy answer reports answered=$(field "$ANS_M" answered)"
[[ "$(field "$ANS_M" of)" -eq 3 ]] || die "healthy answer reports of=$(field "$ANS_M" of)"
grep -q '"degraded":false' <<<"$ANS_M" || die "healthy answer flagged degraded: $ANS_M"

echo "== SIGKILL shard s2 -> degraded answer, not an error"
kill -9 "$S2_PID" || die "could not kill shard s2"
DEG="$(curl -fsS "$MBASE/answer?query=q")" || die "degraded answer errored (must degrade, not fail)"
[[ "$(field "$DEG" answered)" -eq 2 ]] || die "degraded answer reports answered=$(field "$DEG" answered), want 2"
[[ "$(field "$DEG" of)" -eq 3 ]] || die "degraded answer reports of=$(field "$DEG" of), want 3"
grep -q '"degraded":true' <<<"$DEG" || die "killed shard not flagged degraded: $DEG"
grep -q '"missing":\["s2"\]' <<<"$DEG" || die "missing shard list wrong: $DEG"
EST_DEG="$(field "$DEG" estimate)"
echo "   degraded estimate over 2/3 shards: $EST_DEG"

echo "== every shard down -> 503 with Retry-After"
kill -9 "${PIDS[0]}" "${PIDS[1]}" || die "could not kill remaining shards"
HDRS="$WORKDIR/503.headers"
CODE="$(curl -s -o /dev/null -D "$HDRS" -w '%{http_code}' "$MBASE/answer?query=q")"
[[ "$CODE" == "503" ]] || die "all-shards-down answer returned $CODE, want 503"
grep -qi '^retry-after:' "$HDRS" || die "503 without Retry-After header"

echo "PASS: cluster reconciles bit-identical when healthy and degrades (never errors) under shard loss"
