#!/usr/bin/env bash
# Membership smoke: the self-healing fleet lifecycle as a whole system.
# iorouter boots with ZERO replicas; three ioserve replicas self-register
# over the admin-gated registration plane and are admitted after their
# first health probe. Then the two exit paths: kill -9 one replica and
# require the router to forget it entirely via lease expiry (member gone
# from the fleet view, no ghost metric series), and SIGTERM another under
# live load requiring the coordinated drain handshake (deregister → arc
# handoff → local drain) to lose zero requests. Finally restart the router
# and require it to rebuild the surviving member from its membership
# snapshot, then drain everything to a clean final state.
#
# Knobs (env): REQUESTS, CONCURRENCY, ROUTER_ADDR, REPLICA_BASE_PORT.
set -euo pipefail
cd "$(dirname "$0")/.."
SMOKE=membership-smoke
source scripts/lib.sh

ROUTER_ADDR="${ROUTER_ADDR:-127.0.0.1:18170}"
BASE_PORT="${REPLICA_BASE_PORT:-18181}"
REQUESTS="${REQUESTS:-150}"
CONCURRENCY="${CONCURRENCY:-8}"
ADMIN_TOKEN="membership-smoke-token"

R1="127.0.0.1:$BASE_PORT"
R2="127.0.0.1:$((BASE_PORT + 1))"
R3="127.0.0.1:$((BASE_PORT + 2))"

build ioserve iorouter ioload

# The router's /healthz is a readiness probe: 503 while the ring is empty.
# A zero-replica boot is exactly that state, so router liveness is checked
# on the fleet view instead.
wait_router_up() { # name log
  for i in $(seq 1 120); do
    if fleet_view | grep -q '"healthy":'; then
      return 0
    fi
    sleep 1
  done
  echo "membership-smoke: $1 never came up" >&2
  cat "$2" >&2
  exit 1
}

wait_member_gone() { # name
  for i in $(seq 1 60); do
    if ! fleet_view | grep -q "\"name\":\"$1\""; then
      return 0
    fi
    sleep 1
  done
  echo "membership-smoke: member $1 never left the fleet view" >&2
  fleet_view >&2
  exit 1
}

start_router() { # logfile
  start "$1" "$workdir/iorouter" \
    -addr "$ROUTER_ADDR" \
    -fleet-state "$workdir/membership.json" \
    -lease-ttl 2s \
    -health-interval 250ms \
    -breaker-threshold 2 \
    -breaker-cooldown 2s \
    -admin-token "$ADMIN_TOKEN" \
    -shutdown-grace 10s
}

start_replica() { # addr logfile extra-args...
  local addr="$1" logfile="$2"
  shift 2
  start "$logfile" "$workdir/ioserve" \
    -addr "$addr" \
    -models "$workdir/registry" \
    -reload-interval 1s \
    -router "http://$ROUTER_ADDR" \
    -admin-token "$ADMIN_TOKEN" \
    -heartbeat-interval 500ms \
    -shutdown-grace 10s \
    "$@"
}

echo "membership-smoke: booting iorouter with ZERO replicas"
start_router "$workdir/iorouter.log"
router_pid="${pids[-1]}"
wait_router_up "iorouter" "$workdir/iorouter.log"
if ! fleet_view | grep -q '"healthy":0'; then
  echo "membership-smoke: zero-replica router does not report an empty fleet" >&2
  fleet_view >&2
  exit 1
fi

echo "membership-smoke: replica 1 ($R1) bootstraps the registry and self-registers"
start_replica "$R1" "$workdir/replica1.log" -bootstrap -jobs 600 -versions 1
replica1_pid="${pids[-1]}"
wait_healthz "$R1" "replica 1" "$workdir/replica1.log"

echo "membership-smoke: replicas 2 ($R2) and 3 ($R3) join the fleet"
start_replica "$R2" "$workdir/replica2.log"
replica2_pid="${pids[-1]}"
start_replica "$R3" "$workdir/replica3.log"
replica3_pid="${pids[-1]}"
wait_healthz "$R2" "replica 2" "$workdir/replica2.log"
wait_healthz "$R3" "replica 3" "$workdir/replica3.log"
wait_fleet_healthy 3

echo "membership-smoke: phase 1 — $REQUESTS requests across the self-registered fleet"
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
    echo "membership-smoke: replica $r served no rows in phase 1" >&2
    cat "$workdir/phase1.txt" >&2
    exit 1
  fi
done

echo "membership-smoke: kill -9 replica 2 ($R2) — lease expiry must forget it"
{ kill -9 "$replica2_pid" && wait "$replica2_pid"; } 2>/dev/null || true
wait_member_gone "$R2"
wait_fleet_healthy 2
if fleet_view | grep -q "\"name\":\"$R2\""; then
  echo "membership-smoke: expired member still in the fleet view" >&2
  fleet_view >&2
  exit 1
fi
metrics="$(curl -fsS "http://$ROUTER_ADDR/metrics")"
if grep "iorouter_replica_up" <<<"$metrics" | grep -q "$R2"; then
  echo "membership-smoke: ghost iorouter_replica_up series for the expired member" >&2
  exit 1
fi
if ! grep -q 'iorouter_membership_events_total{event="lease_expired"} 1' <<<"$metrics"; then
  echo "membership-smoke: no lease_expired membership event counted" >&2
  grep iorouter_membership <<<"$metrics" >&2 || true
  exit 1
fi

echo "membership-smoke: phase 2 — SIGTERM replica 3 ($R3) under live load (coordinated drain)"
"$workdir/ioload" \
  -addr "http://$ROUTER_ADDR" \
  -system theta \
  -requests "$REQUESTS" \
  -concurrency "$CONCURRENCY" \
  -rate 100 -dup 0.7 \
  -retries 3 \
  >"$workdir/phase2.txt" 2>&1 &
load_pid=$!
sleep 1
kill -TERM "$replica3_pid"
wait "$load_pid" || {
  echo "membership-smoke: load run failed during the graceful drain" >&2
  cat "$workdir/phase2.txt" >&2
  exit 1
}
cat "$workdir/phase2.txt"
assert_zero_errors "$workdir/phase2.txt"
wait "$replica3_pid" 2>/dev/null || true
if ! grep -q "fleet drain confirmed" "$workdir/replica3.log"; then
  echo "membership-smoke: replica 3 never confirmed its drain handshake" >&2
  cat "$workdir/replica3.log" >&2
  exit 1
fi
if ! grep -q "shutdown complete" "$workdir/replica3.log"; then
  echo "membership-smoke: replica 3 did not shut down cleanly" >&2
  cat "$workdir/replica3.log" >&2
  exit 1
fi
wait_member_gone "$R3"
wait_fleet_healthy 1
metrics="$(curl -fsS "http://$ROUTER_ADDR/metrics")"
if ! grep -q 'iorouter_membership_events_total{event="deregister"} 1' <<<"$metrics"; then
  echo "membership-smoke: no deregister membership event counted" >&2
  grep iorouter_membership <<<"$metrics" >&2 || true
  exit 1
fi

echo "membership-smoke: restarting the router — snapshot must rebuild the survivor"
stop "$router_pid" || true
if ! grep -q "shutdown complete" "$workdir/iorouter.log"; then
  echo "membership-smoke: router did not shut down cleanly" >&2
  cat "$workdir/iorouter.log" >&2
  exit 1
fi
if ! grep -q "\"$R1\"" "$workdir/membership.json"; then
  echo "membership-smoke: snapshot does not record the surviving member" >&2
  cat "$workdir/membership.json" >&2
  exit 1
fi
start_router "$workdir/iorouter2.log"
router_pid="${pids[-1]}"
wait_router_up "restarted iorouter" "$workdir/iorouter2.log"
if ! grep -q "from snapshot" "$workdir/iorouter2.log"; then
  echo "membership-smoke: restarted router did not restore from its snapshot" >&2
  cat "$workdir/iorouter2.log" >&2
  exit 1
fi
wait_fleet_healthy 1

echo "membership-smoke: phase 3 — $REQUESTS requests against the rebuilt fleet"
"$workdir/ioload" \
  -addr "http://$ROUTER_ADDR" \
  -system theta \
  -requests "$REQUESTS" \
  -concurrency "$CONCURRENCY" \
  -rate 0 -dup 0.7 \
  -retries 3 \
  | tee "$workdir/phase3.txt"
assert_zero_errors "$workdir/phase3.txt"

echo "membership-smoke: draining to a clean final state"
kill -TERM "$replica1_pid"
wait "$replica1_pid" 2>/dev/null || true
if ! grep -q "fleet drain confirmed" "$workdir/replica1.log"; then
  echo "membership-smoke: replica 1 never confirmed its final drain" >&2
  cat "$workdir/replica1.log" >&2
  exit 1
fi
wait_fleet_healthy 0
stop "$router_pid" || true
if ! grep -q "shutdown complete" "$workdir/iorouter2.log"; then
  echo "membership-smoke: restarted router did not exit cleanly" >&2
  cat "$workdir/iorouter2.log" >&2
  exit 1
fi

echo "membership-smoke: OK (zero-replica boot, self-registration, lease-expiry ejection, zero-lost drain, snapshot recovery, clean final state)"
