#!/usr/bin/env bash
# Chaos smoke: boot ioserve with fault injection and admission control,
# saturate it with ioload, and assert the resilience contract end to end —
# injected latency/errors/panics/registry corruption produce load shedding
# and retries but NO crash, and SIGTERM drains to a clean exit.
#
# Knobs (env): CHAOS_SPEC, REQUESTS, CONCURRENCY, ADDR.
set -euo pipefail
cd "$(dirname "$0")/.."
SMOKE=chaos-smoke
source scripts/lib.sh

ADDR="${ADDR:-127.0.0.1:18080}"
CHAOS_SPEC="${CHAOS_SPEC:-latency=5ms:0.5,error=0.05,panic=0.02,corrupt=0.2}"
REQUESTS="${REQUESTS:-400}"
CONCURRENCY="${CONCURRENCY:-16}"

build ioserve ioload

echo "chaos-smoke: starting ioserve with -chaos '$CHAOS_SPEC'"
start "$workdir/ioserve.log" "$workdir/ioserve" \
  -addr "$ADDR" \
  -bootstrap -models "$workdir/registry" -jobs 800 -versions 1 \
  -chaos "$CHAOS_SPEC" \
  -admission-max-inflight 2 \
  -default-deadline 2s \
  -reload-interval 1s \
  -shutdown-grace 10s \
  -workers 1
server_pid="${pids[-1]}"

# Bootstrap trains models, so give the health check a generous window.
echo "chaos-smoke: waiting for /healthz"
wait_healthz "$ADDR" "ioserve" "$workdir/ioserve.log" "$server_pid"

echo "chaos-smoke: driving $REQUESTS requests at concurrency $CONCURRENCY"
# -rate 0 is a closed loop: saturation is the point. -expect-chaos makes
# ioload itself assert sheds > 0, a live server, and some served traffic.
"$workdir/ioload" \
  -addr "http://$ADDR" \
  -system theta \
  -requests "$REQUESTS" \
  -concurrency "$CONCURRENCY" \
  -rate 0 \
  -retries 3 \
  -expect-chaos

echo "chaos-smoke: asking for graceful shutdown"
stop_clean "$server_pid" "ioserve" "$workdir/ioserve.log"
if ! grep -q "shutdown complete" "$workdir/ioserve.log"; then
  fail "no clean-shutdown marker in the server log" "$workdir/ioserve.log"
fi

echo "chaos-smoke: OK (faults injected, load shed, zero crashes, clean drain)"
