# Process plumbing shared by the smoke scripts. Source it from the repo
# root after setting SMOKE (the script's name, used as the message prefix).
# It creates $workdir, kills every process started through start() when the
# script exits, and polls the HTTP surfaces the scripts wait on.

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    # The braced wait keeps bash from printing "Killed" job notices.
    { kill -9 "$pid" && wait "$pid"; } 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

# fail MESSAGE [LOG...] prints MESSAGE and the given logs to stderr and
# exits 1.
fail() {
  echo "$SMOKE: $1" >&2
  shift
  for log in "$@"; do
    cat "$log" >&2
  done
  exit 1
}

# build NAME... builds ./cmd/NAME into $workdir/NAME.
build() {
  echo "$SMOKE: building binaries"
  for name in "$@"; do
    go build -o "$workdir/$name" "./cmd/$name"
  done
}

# start LOG CMD [ARG...] runs CMD in the background with its output in LOG
# and registers it for cleanup; its pid is ${pids[-1]}.
start() {
  local log="$1"
  shift
  "$@" >"$log" 2>&1 &
  pids+=($!)
}

# wait_healthz ADDR NAME LOG [PID] polls /healthz for up to 120s (model
# bootstraps train first). With PID, a process that dies meanwhile fails
# at once.
wait_healthz() {
  for i in $(seq 1 120); do
    if curl -fsS "http://$1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    if [ -n "${4:-}" ] && ! kill -0 "$4" 2>/dev/null; then
      fail "$2 died during startup" "$3"
    fi
    sleep 1
  done
  fail "$2 never became healthy" "$3"
}

# stop PID sends SIGTERM and gives the process 20s to exit. It returns the
# process's exit status, or 124 when it is still running.
stop() {
  kill -TERM "$1"
  for i in $(seq 1 20); do
    if ! kill -0 "$1" 2>/dev/null; then
      wait "$1"
      return
    fi
    sleep 1
  done
  return 124
}

# stop_clean PID NAME LOG requires a SIGTERM drain to a zero exit within
# 20s.
stop_clean() {
  local status=0
  stop "$1" || status=$?
  if [ "$status" -eq 124 ]; then
    fail "$2 did not exit within 20s of SIGTERM" "$3"
  fi
  if [ "$status" -ne 0 ]; then
    fail "$2 exited non-zero after SIGTERM" "$3"
  fi
}

# fleet_view prints the router's GET /v1/fleet body (empty when down).
fleet_view() {
  curl -fsS ${ADMIN_TOKEN:+-H "X-Admin-Token: $ADMIN_TOKEN"} "http://$ROUTER_ADDR/v1/fleet" 2>/dev/null || true
}

# wait_fleet_healthy WANT polls the fleet view for up to 60s until WANT
# replicas are on the ring.
wait_fleet_healthy() {
  for i in $(seq 1 60); do
    if fleet_view | grep -q "\"healthy\":$1"; then
      return 0
    fi
    sleep 1
  done
  echo "$SMOKE: fleet never reached $1 healthy replicas" >&2
  fleet_view >&2
  cat "$workdir/iorouter.log" >&2
  exit 1
}

# assert_zero_errors REPORT fails unless an ioload report saw no errors.
assert_zero_errors() {
  if ! grep -Eq "^requests +[0-9]+ \(0 errors\)$" "$1"; then
    fail "load run reported request errors" "$1"
  fi
}
