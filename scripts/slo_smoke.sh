#!/usr/bin/env bash
# SLO smoke: boot an ioserve replica behind iorouter with SLO tracking and
# fleet tracing on, and assert the observability contract end to end —
# nominal load meets the latency objective (ioload -expect-slo met), a
# stitched cross-process trace is retrievable over /v1/trace/{id} with the
# replica's own spans spliced in, and swapping the replica for one with
# injected latency burns the error budget (ioload -expect-slo burning).
#
# Knobs (env): REQUESTS, CONCURRENCY, ROUTER_ADDR, REPLICA_PORT, SLO_SPEC.
set -euo pipefail
cd "$(dirname "$0")/.."
SMOKE=slo-smoke
source scripts/lib.sh

ROUTER_ADDR="${ROUTER_ADDR:-127.0.0.1:18090}"
REPLICA="127.0.0.1:${REPLICA_PORT:-18091}"
REQUESTS="${REQUESTS:-150}"
CONCURRENCY="${CONCURRENCY:-4}"
# p99 target generous enough that loopback predicts never breach it, tight
# enough that the chaos phase's injected 500ms latency always does.
SLO_SPEC="${SLO_SPEC:-predict:p99=150ms,avail=99}"

build ioserve iorouter ioload

echo "slo-smoke: bootstrapping replica $REPLICA with tracing on"
start "$workdir/replica.log" "$workdir/ioserve" \
  -addr "$REPLICA" \
  -bootstrap -models "$workdir/registry" -jobs 600 -versions 1 \
  -trace-sample 1 \
  -reload-interval 1s \
  -shutdown-grace 10s
replica_pid="${pids[-1]}"
wait_healthz "$REPLICA" "replica" "$workdir/replica.log"

echo "slo-smoke: starting iorouter on $ROUTER_ADDR with -slo '$SLO_SPEC'"
start "$workdir/iorouter.log" "$workdir/iorouter" \
  -addr "$ROUTER_ADDR" \
  -replicas "http://$REPLICA" \
  -health-interval 250ms \
  -slo "$SLO_SPEC" \
  -trace-sample 1 \
  -shutdown-grace 10s
router_pid="${pids[-1]}"
wait_healthz "$ROUTER_ADDR" "iorouter" "$workdir/iorouter.log"
wait_fleet_healthy 1

echo "slo-smoke: phase 1 — $REQUESTS nominal requests, objectives must be met"
"$workdir/ioload" \
  -addr "http://$ROUTER_ADDR" \
  -system theta \
  -requests "$REQUESTS" \
  -concurrency "$CONCURRENCY" \
  -rate 0 -dup 0.5 \
  -retries 3 \
  -expect-slo met \
  | tee "$workdir/phase1.txt"

echo "slo-smoke: fetching a stitched cross-process trace"
trace_id="$(curl -fsS "http://$ROUTER_ADDR/v1/trace?limit=1" \
  | sed -n 's/.*"trace_id":"\([0-9a-f]\{16\}\)".*/\1/p' | head -n 1)"
if [ -z "$trace_id" ]; then
  echo "slo-smoke: router retained no traces despite -trace-sample 1" >&2
  curl -fsS "http://$ROUTER_ADDR/v1/trace" >&2 || true
  exit 1
fi
stitched="$(curl -fsS "http://$ROUTER_ADDR/v1/trace/$trace_id")"
for want in '"network"' '"replica request ' '"fanout"'; do
  if ! printf '%s' "$stitched" | grep -qF "$want"; then
    echo "slo-smoke: stitched trace $trace_id is missing $want" >&2
    printf '%s\n' "$stitched" >&2
    exit 1
  fi
done
echo "slo-smoke: trace $trace_id stitched with replica spans and network time"

echo "slo-smoke: SLO series must be on the router's /metrics"
if ! curl -fsS "http://$ROUTER_ADDR/metrics" | grep -q '^iorouter_slo_requests_total'; then
  echo "slo-smoke: /metrics lacks iorouter_slo_requests_total" >&2
  exit 1
fi

echo "slo-smoke: swapping in a replica with 500ms injected latency"
{ kill -9 "$replica_pid" && wait "$replica_pid"; } 2>/dev/null || true
wait_fleet_healthy 0
start "$workdir/replica-chaos.log" "$workdir/ioserve" \
  -addr "$REPLICA" \
  -models "$workdir/registry" \
  -chaos 'latency=500ms:1' \
  -reload-interval 1s \
  -shutdown-grace 10s
wait_healthz "$REPLICA" "chaotic replica" "$workdir/replica-chaos.log"
wait_fleet_healthy 1

echo "slo-smoke: phase 2 — slow requests must burn the error budget"
"$workdir/ioload" \
  -addr "http://$ROUTER_ADDR" \
  -system theta \
  -requests 40 \
  -concurrency "$CONCURRENCY" \
  -rate 0 -dup 0.5 \
  -retries 3 \
  -expect-slo burning \
  | tee "$workdir/phase2.txt"

echo "slo-smoke: asking the router for graceful shutdown"
stop_clean "$router_pid" "iorouter" "$workdir/iorouter.log"

echo "slo-smoke: OK (objectives met, stitched trace, budget burn detected, clean drain)"
