#!/usr/bin/env bash
# Fleet smoke: boot three ioserve replicas over one shared registry tree,
# front them with iorouter, and assert the fleet contract end to end —
# traffic spreads across the fleet, killing a replica ejects it with zero
# request errors (the survivors absorb its arcs), a restart rejoins it,
# and SIGTERM drains the router to a clean exit.
#
# Knobs (env): REQUESTS, CONCURRENCY, ROUTER_ADDR, REPLICA_BASE_PORT.
set -euo pipefail
cd "$(dirname "$0")/.."
SMOKE=fleet-smoke
source scripts/lib.sh

ROUTER_ADDR="${ROUTER_ADDR:-127.0.0.1:18070}"
BASE_PORT="${REPLICA_BASE_PORT:-18081}"
REQUESTS="${REQUESTS:-150}"
CONCURRENCY="${CONCURRENCY:-8}"

R1="127.0.0.1:$BASE_PORT"
R2="127.0.0.1:$((BASE_PORT + 1))"
R3="127.0.0.1:$((BASE_PORT + 2))"

build ioserve iorouter ioload

start_replica() { # addr logfile
  start "$2" "$workdir/ioserve" \
    -addr "$1" \
    -models "$workdir/registry" \
    -reload-interval 1s \
    -shutdown-grace 10s
}

# Replica 1 bootstraps the shared tree; 2 and 3 load it once it exists.
echo "fleet-smoke: bootstrapping the shared registry via replica 1 ($R1)"
start "$workdir/replica1.log" "$workdir/ioserve" \
  -addr "$R1" \
  -bootstrap -models "$workdir/registry" -jobs 600 -versions 1 \
  -reload-interval 1s \
  -shutdown-grace 10s
wait_healthz "$R1" "replica 1" "$workdir/replica1.log"

echo "fleet-smoke: starting replicas 2 ($R2) and 3 ($R3) over the same tree"
start_replica "$R2" "$workdir/replica2.log"
replica2_pid="${pids[-1]}"
start_replica "$R3" "$workdir/replica3.log"
wait_healthz "$R2" "replica 2" "$workdir/replica2.log"
wait_healthz "$R3" "replica 3" "$workdir/replica3.log"

echo "fleet-smoke: starting iorouter on $ROUTER_ADDR"
start "$workdir/iorouter.log" "$workdir/iorouter" \
  -addr "$ROUTER_ADDR" \
  -replicas "http://$R1,http://$R2,http://$R3" \
  -health-interval 250ms \
  -breaker-threshold 2 \
  -breaker-cooldown 2s \
  -shutdown-grace 10s
router_pid="${pids[-1]}"
wait_healthz "$ROUTER_ADDR" "iorouter" "$workdir/iorouter.log"

echo "fleet-smoke: phase 1 — $REQUESTS requests across the full fleet"
"$workdir/ioload" \
  -addr "http://$ROUTER_ADDR" \
  -system theta \
  -requests "$REQUESTS" \
  -concurrency "$CONCURRENCY" \
  -rate 0 -dup 0.7 \
  -retries 3 \
  | tee "$workdir/phase1.txt"
assert_zero_errors "$workdir/phase1.txt"
for r in "$R1" "$R2" "$R3"; do
  if ! grep -q "$r" "$workdir/phase1.txt"; then
    echo "fleet-smoke: replica $r served no rows in phase 1" >&2
    cat "$workdir/phase1.txt" >&2
    exit 1
  fi
done

echo "fleet-smoke: killing replica 2 ($R2)"
{ kill -9 "$replica2_pid" && wait "$replica2_pid"; } 2>/dev/null || true
wait_fleet_healthy 2

echo "fleet-smoke: phase 2 — $REQUESTS requests against the degraded fleet"
"$workdir/ioload" \
  -addr "http://$ROUTER_ADDR" \
  -system theta \
  -requests "$REQUESTS" \
  -concurrency "$CONCURRENCY" \
  -rate 0 -dup 0.7 \
  -retries 3 \
  | tee "$workdir/phase2.txt"
assert_zero_errors "$workdir/phase2.txt"
if grep "^replica rows" "$workdir/phase2.txt" | grep -q "$R2"; then
  echo "fleet-smoke: the ejected replica $R2 still received rows" >&2
  cat "$workdir/phase2.txt" >&2
  exit 1
fi

echo "fleet-smoke: restarting replica 2 and waiting for rejoin"
start_replica "$R2" "$workdir/replica2b.log"
wait_healthz "$R2" "restarted replica 2" "$workdir/replica2b.log"
wait_fleet_healthy 3

echo "fleet-smoke: asking the router for graceful shutdown"
stop_clean "$router_pid" "iorouter" "$workdir/iorouter.log"
if ! grep -q "shutdown complete" "$workdir/iorouter.log"; then
  echo "fleet-smoke: no clean-shutdown marker in the router log" >&2
  cat "$workdir/iorouter.log" >&2
  exit 1
fi

echo "fleet-smoke: OK (fleet spread, clean ejection, zero errors, rejoin, clean drain)"
