#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end check of the sharded serving topology
# with durable, partitioned telemetry.
#
# Spins up a 3-shard multi-process cluster (one fleetserver per shard,
# each with its own WAL and snapshot spill, plus a router that routes
# telemetry to ring owners only), replays fleetgen telemetry through
# the router as binary wire frames (the router splits each frame's raw
# vehicle groups to their ring owners) — SIGKILLing a shard while the
# replay is still streaming, which must make that replay fail — and
# asserts:
#   1. the recovered cluster's merged /fleet/forecast is byte-identical
#      to a single unsharded fleetserver over the same data — and stays
#      byte-identical on a warm (merge-cached) second read, and across
#      20 rounds of GET + conditional GET over the fleet forecast, a
#      vehicle forecast and a plan, where every conditional GET holding
#      the tag just returned is an empty 304 and the router's
#      merge-cache hit counter moves;
#   2. raw telemetry genuinely partitions ~1/N: per-shard stores are
#      disjoint, sum to the fleet, and none holds everything;
#   3. a shard SIGKILLed *after* the replay (everything acknowledged)
#      restarts from WAL + snapshot spill and serves the same bytes —
#      zero acknowledged reports lost, no cold train;
#   4. per-vehicle routes answer from the owning shard (X-Fleet-Shard);
#   5. the router-level telemetry guard rejects a bad bearer token;
#   6. WAL stats (segments, replay, checkpoint) surface in
#      /admin/ingest;
#   7. one router scrape of /metrics parses line by line, reports
#      fleet_shard_up 1 for every shard, and carries the relabeled
#      route-latency/training-stage/WAL-fsync histograms;
#   8. a single request through the router emits one trace ID, echoed
#      in X-Fleet-Trace and present in the router's and every shard's
#      structured log.
#
# Usage: scripts/cluster_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
echo "cluster-smoke: working in $WORK"

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

go build -o "$WORK/fleetserver" ./cmd/fleetserver
go build -o "$WORK/fleetgen" ./cmd/fleetgen
go build -o "$WORK/fleetctl" ./cmd/fleetctl

"$WORK/fleetgen" -vehicles 24 -days 900 -o "$WORK/fleet.csv"

TOKEN="smoke-secret"

wait_ready() { # url [tries]
  local url=$1 tries=${2:-100}
  for _ in $(seq "$tries"); do
    if curl -fsS "$url/readyz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "cluster-smoke: $url never became ready" >&2
  return 1
}

# retrain_settled URL — force a waited incremental retrain so the
# serving snapshots (and, in the cluster, every shard's donor pool)
# cover everything ingested so far. Retries around 409s from
# still-running dirty-threshold builds and 503s from shards still
# rebuilding after a restart.
retrain_settled() {
  local url=$1
  for _ in $(seq 120); do
    local code
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$url/admin/retrain?wait=1")
    if [ "$code" = "200" ]; then
      return 0
    fi
    sleep 0.5
  done
  echo "cluster-smoke: retrain at $url never settled" >&2
  return 1
}

start_shard() { # index
  local i=$1
  "$WORK/fleetserver" -data "$WORK/fleet.csv" -ingest -retrain-dirty 1 \
    -join "shard$i" -peers "$PEERS" \
    -snapshot-dir "$WORK/snapshots" \
    -wal-dir "$WORK/wal/shard$i" -fsync always \
    -addr "127.0.0.1:1808$((i + 1))" >>"$WORK/shard$i.log" 2>&1 &
  PIDS+=($!)
  SHARD_PID[$i]=$!
}

# --- single-process reference ------------------------------------------------
# Live-ingest mode, seeded from the CSV, then fed the same replay the
# cluster gets — both sides converge on identical store content.
"$WORK/fleetserver" -data "$WORK/fleet.csv" -ingest -retrain-dirty 1 \
  -addr 127.0.0.1:18080 >"$WORK/single.log" 2>&1 &
PIDS+=($!)
wait_ready http://127.0.0.1:18080 300
"$WORK/fleetgen" -vehicles 24 -days 900 -post http://127.0.0.1:18080 \
  >"$WORK/replay-single.log" 2>&1
retrain_settled http://127.0.0.1:18080
curl -fsS http://127.0.0.1:18080/fleet/forecast >"$WORK/single.json"

# --- 3-shard cluster with partitioned, WAL-backed telemetry ------------------
PEERS="shard0=http://127.0.0.1:18081,shard1=http://127.0.0.1:18082,shard2=http://127.0.0.1:18083"
declare -A SHARD_PID
for i in 0 1 2; do
  start_shard "$i"
done
"$WORK/fleetserver" -peers "$PEERS" -telemetry-token "$TOKEN" \
  -addr 127.0.0.1:18084 >"$WORK/router.log" 2>&1 &
PIDS+=($!)

wait_ready http://127.0.0.1:18084 300

# Replay the same fleet through the router as live telemetry — each
# vehicle's reports go only to its ring owner — one day per batch (900
# batches), and SIGKILL shard0 once 20 batches are acknowledged: the
# next batch holding a shard0 vehicle fails at the router, so the
# replay must exit non-zero. A replay that succeeds means the kill
# landed after the stream ended and the redelivery below proves nothing.
"$WORK/fleetgen" -vehicles 24 -days 900 -post http://127.0.0.1:18084 \
  -auth-token "$TOKEN" -batch-days 1 >"$WORK/replay.log" 2>&1 &
REPLAY_PID=$!
ACKED=0
for _ in $(seq 600); do
  ACKED=$(grep -c '^fleetgen: days \[' "$WORK/replay.log" || true)
  if [ "$ACKED" -ge 20 ] || ! kill -0 "$REPLAY_PID" 2>/dev/null; then
    break
  fi
  sleep 0.05
done
kill -9 "${SHARD_PID[0]}" 2>/dev/null || true
if wait "$REPLAY_PID"; then
  echo "cluster-smoke: FAIL — the replay finished cleanly, so shard0's SIGKILL did not land mid-replay" >&2
  tail -3 "$WORK/replay.log" >&2
  exit 1
fi
if [ "$ACKED" -lt 20 ]; then
  echo "cluster-smoke: FAIL — the replay stopped after $ACKED acknowledged batches, before the SIGKILL" >&2
  tail -3 "$WORK/replay.log" >&2
  exit 1
fi
echo "cluster-smoke: SIGKILLed shard0 mid-replay after $(grep -c '^fleetgen: days \[' "$WORK/replay.log") acknowledged batches"

# Restart shard0 from its WAL + snapshot spill: every batch it
# acknowledged before the kill must already be back before we redeliver.
start_shard 0
wait_ready http://127.0.0.1:18081 300
# The first boot logs a "wal recovered" record with vehicles=0 over an
# empty WAL; the restart must have recovered a non-empty store from the
# journal.
if ! grep -Eq '"msg":"wal recovered".*"vehicles":[1-9]' "$WORK/shard0.log"; then
  echo "cluster-smoke: FAIL — restarted shard0 did not replay its WAL" >&2
  cat "$WORK/shard0.log" >&2
  exit 1
fi
echo "cluster-smoke: shard0 restarted from WAL replay"

# Redeliver the full replay: batches the dead shard never acknowledged
# land now; everything it *did* acknowledge is an idempotent no-op.
"$WORK/fleetgen" -vehicles 24 -days 900 -post http://127.0.0.1:18084 \
  -auth-token "$TOKEN" >"$WORK/replay2.log" 2>&1
retrain_settled http://127.0.0.1:18084

# 1. Merged forecasts equal the single-process output byte for byte.
curl -fsS http://127.0.0.1:18084/fleet/forecast >"$WORK/cluster.json"
if ! cmp -s "$WORK/single.json" "$WORK/cluster.json"; then
  echo "cluster-smoke: FAIL — sharded /fleet/forecast differs from single-process after crash recovery" >&2
  diff "$WORK/single.json" "$WORK/cluster.json" | head >&2 || true
  exit 1
fi
echo "cluster-smoke: merged forecasts are byte-identical to single-process (through a mid-replay SIGKILL)"

# 1b. The generation-keyed read path: a second (merge-cached) read
# serves the same bytes, every conditional GET holding the tag the
# previous GET returned gets an empty 304, and the bytes stay untouched
# while the router's merge cache takes hits.
curl -fsS http://127.0.0.1:18084/fleet/forecast >"$WORK/cluster-warm.json"
if ! cmp -s "$WORK/cluster.json" "$WORK/cluster-warm.json"; then
  echo "cluster-smoke: FAIL — warm merge-cached /fleet/forecast differs from the cold read" >&2
  exit 1
fi
N304=0
for _ in $(seq 20); do
  for path in /fleet/forecast /vehicles/v01/forecast '/fleet/plan?capacity=2'; do
    TAG=$(curl -fsS -D - -o /dev/null "http://127.0.0.1:18084$path" |
      tr -d '\r' | awk -F': ' 'tolower($1)=="etag"{print $2}')
    if [ -z "$TAG" ]; then
      echo "cluster-smoke: FAIL — $path carries no ETag" >&2
      exit 1
    fi
    COND=$(curl -s -o "$WORK/cond-body" -w '%{http_code}' \
      -H "If-None-Match: $TAG" "http://127.0.0.1:18084$path")
    if [ "$COND" != "304" ] || [ -s "$WORK/cond-body" ]; then
      echo "cluster-smoke: FAIL — conditional GET of $path with current ETag $TAG got $COND (body $(wc -c <"$WORK/cond-body") bytes), want empty 304" >&2
      exit 1
    fi
    N304=$((N304 + 1))
  done
done
MERGE_HITS=$(curl -fsS http://127.0.0.1:18084/metrics |
  awk '$1 == "fleet_router_merge_cache_hits" {print $2}')
if [ -z "$MERGE_HITS" ] || [ "${MERGE_HITS%.*}" -lt 1 ]; then
  echo "cluster-smoke: FAIL — router merge cache took no hits under the conditional reads (fleet_router_merge_cache_hits=$MERGE_HITS)" >&2
  exit 1
fi
curl -fsS http://127.0.0.1:18084/fleet/forecast >"$WORK/cluster-postreads.json"
if ! cmp -s "$WORK/cluster.json" "$WORK/cluster-postreads.json"; then
  echo "cluster-smoke: FAIL — /fleet/forecast bytes drifted across the conditional reads" >&2
  exit 1
fi
echo "cluster-smoke: read path — warm bytes identical, $N304 of $N304 conditional GETs 304, merge-cache hits $MERGE_HITS"

# 2. Raw telemetry partitions ~1/N: per-shard stores are disjoint
# slices summing to the fleet, and no shard holds everything.
TOTAL=0
for i in 0 1 2; do
  N=$(curl -fsS "http://127.0.0.1:1808$((i + 1))/admin/ingest" |
    sed -n 's/.*"vehicles":\([0-9]*\).*/\1/p' | head -1)
  echo "cluster-smoke: shard$i stores $N vehicles"
  if [ -z "$N" ] || [ "$N" -ge 24 ]; then
    echo "cluster-smoke: FAIL — shard$i stores $N of 24 vehicles (telemetry not partitioned)" >&2
    exit 1
  fi
  TOTAL=$((TOTAL + N))
done
if [ "$TOTAL" -ne 24 ]; then
  echo "cluster-smoke: FAIL — shard stores hold $TOTAL vehicles total, want a disjoint 24" >&2
  exit 1
fi
echo "cluster-smoke: raw telemetry partitions 1/N (24 vehicles across 3 disjoint stores)"

# 3. Zero acknowledged loss: SIGKILL shard1 now that every report is
# acknowledged, restart it from WAL + spill, and require identical
# bytes with NO redelivery.
kill -9 "${SHARD_PID[1]}" 2>/dev/null || true
start_shard 1
wait_ready http://127.0.0.1:18082 300
retrain_settled http://127.0.0.1:18084
curl -fsS http://127.0.0.1:18084/fleet/forecast >"$WORK/cluster-restored.json"
if ! cmp -s "$WORK/single.json" "$WORK/cluster-restored.json"; then
  echo "cluster-smoke: FAIL — acknowledged reports lost across SIGKILL (forecasts drifted)" >&2
  diff "$WORK/single.json" "$WORK/cluster-restored.json" | head >&2 || true
  exit 1
fi
echo "cluster-smoke: SIGKILLed shard restarted with zero acknowledged reports lost"

# 4. Per-vehicle affinity: the router names the owning shard.
SHARD_HDR=$(curl -fsS -D - -o /dev/null http://127.0.0.1:18084/vehicles/v01/forecast |
  tr -d '\r' | awk -F': ' 'tolower($1)=="x-fleet-shard"{print $2}')
case "$SHARD_HDR" in
  shard0 | shard1 | shard2) echo "cluster-smoke: v01 served by $SHARD_HDR" ;;
  *)
    echo "cluster-smoke: FAIL — missing/unknown X-Fleet-Shard header: '$SHARD_HDR'" >&2
    exit 1
    ;;
esac

# 5. The router-level guard rejects bad credentials.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -H 'Authorization: Bearer wrong' -H 'Content-Type: application/json' \
  -d '{"reports":[]}' http://127.0.0.1:18084/telemetry)
if [ "$CODE" != "401" ]; then
  echo "cluster-smoke: FAIL — bad token got $CODE, want 401" >&2
  exit 1
fi
echo "cluster-smoke: bad bearer token rejected with 401"

# 6. WAL stats surface end to end (server JSON and fleetctl ingest).
if ! curl -fsS http://127.0.0.1:18081/admin/ingest | grep -q '"wal"'; then
  echo "cluster-smoke: FAIL — /admin/ingest has no WAL stats" >&2
  exit 1
fi
"$WORK/fleetctl" ingest -url http://127.0.0.1:18081 >"$WORK/fleetctl-ingest.txt"
if ! grep -q "segments" "$WORK/fleetctl-ingest.txt"; then
  echo "cluster-smoke: FAIL — fleetctl ingest printed no WAL section" >&2
  cat "$WORK/fleetctl-ingest.txt" >&2
  exit 1
fi
echo "cluster-smoke: WAL stats visible via /admin/ingest and fleetctl ingest"

# 7. One router scrape sees the whole cluster: every line is a comment
# or a `name{labels} value` sample, every shard reports up, and the
# relabeled histograms (route latency, training stages, WAL fsync) are
# all present.
curl -fsS http://127.0.0.1:18084/metrics >"$WORK/metrics.txt"
if grep -vE '^#' "$WORK/metrics.txt" |
  grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [-+0-9.eE]+$' | grep -q .; then
  echo "cluster-smoke: FAIL — /metrics has unparseable lines:" >&2
  grep -vE '^#' "$WORK/metrics.txt" |
    grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [-+0-9.eE]+$' | head >&2
  exit 1
fi
for i in 0 1 2; do
  if ! grep -q "fleet_shard_up{shard=\"shard$i\"} 1" "$WORK/metrics.txt"; then
    echo "cluster-smoke: FAIL — fleet_shard_up for shard$i is not 1" >&2
    grep fleet_shard_up "$WORK/metrics.txt" >&2 || true
    exit 1
  fi
done
for series in fleet_http_request_seconds_bucket fleet_train_stage_seconds_bucket fleet_wal_fsync_seconds_bucket fleet_shard_call_seconds_bucket; do
  if ! grep -q "^$series" "$WORK/metrics.txt"; then
    echo "cluster-smoke: FAIL — /metrics is missing $series" >&2
    exit 1
  fi
done
# Why vehicles trained is counted per reason on every shard (relabeled
# by the router); by now each shard has trained its partition at least
# once, for one reason or another.
for reason in own_data pool_changed full; do
  if ! grep -q "^fleet_retrain_vehicles_total{.*reason=\"$reason\"" "$WORK/metrics.txt"; then
    echo "cluster-smoke: FAIL — /metrics is missing fleet_retrain_vehicles_total{reason=\"$reason\"}" >&2
    exit 1
  fi
done
RETRAINED=$(awk '/^fleet_retrain_vehicles_total[{]/ {n += $NF} END {print n + 0}' "$WORK/metrics.txt")
if [ "$RETRAINED" -le 0 ]; then
  echo "cluster-smoke: FAIL — fleet_retrain_vehicles_total counts no trained vehicle on any shard" >&2
  exit 1
fi
"$WORK/fleetctl" metrics -url http://127.0.0.1:18084 >"$WORK/fleetctl-metrics.txt"
if ! grep -q "p99" "$WORK/fleetctl-metrics.txt"; then
  echo "cluster-smoke: FAIL — fleetctl metrics printed no latency quantiles" >&2
  cat "$WORK/fleetctl-metrics.txt" >&2
  exit 1
fi
echo "cluster-smoke: /metrics parses, all shards up, histograms present, fleetctl metrics prints quantiles"

# 8. Trace propagation: one scatter request through the router echoes a
# trace ID and the same ID appears in the router's and every shard's
# structured log (shards adopt it from the X-Fleet-Trace header).
TRACE=$(curl -fsS -D - -o /dev/null http://127.0.0.1:18084/vehicles |
  tr -d '\r' | awk -F': ' 'tolower($1)=="x-fleet-trace"{print $2}')
if [ -z "$TRACE" ]; then
  echo "cluster-smoke: FAIL — router echoed no X-Fleet-Trace header" >&2
  exit 1
fi
for log in router.log shard0.log shard1.log shard2.log; do
  found=0
  for _ in $(seq 20); do # shard log lines may flush just after the response
    if grep -q "$TRACE" "$WORK/$log"; then
      found=1
      break
    fi
    sleep 0.1
  done
  if [ "$found" != 1 ]; then
    echo "cluster-smoke: FAIL — trace $TRACE missing from $log" >&2
    tail -5 "$WORK/$log" >&2
    exit 1
  fi
done
echo "cluster-smoke: trace $TRACE visible in router and all shard logs"

echo "cluster-smoke: PASS"
