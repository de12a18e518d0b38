#!/usr/bin/env bash
# Diffs the two newest BENCH_*.json snapshots (or two explicitly named
# ones) and fails when a serving/predict, wire or routed benchmark
# regressed by more than the threshold, or a paper invariant (Fig1a,
# Fig3, ModelZoo error) changed — the CI tripwire after `make bench`.
#
#   ./scripts/benchcmp.sh                       # two newest by mtime
#   ./scripts/benchcmp.sh OLD.json NEW.json     # explicit pair
#   BENCHCMP_THRESHOLD=15 ./scripts/benchcmp.sh
#   BENCHCMP_ALLOC_THRESHOLD=10 ./scripts/benchcmp.sh   # gate allocs tighter
#   BENCHCMP_PATTERN='Serve' ./scripts/benchcmp.sh
#   BENCHCMP_MAX_ALLOCS='ServeBatch16<=44' ./scripts/benchcmp.sh  # absolute alloc budgets
#
# With fewer than two snapshots there is nothing to compare; that is a
# skip (exit 0), not a failure — the tripwire only fires on measured
# regressions.
set -euo pipefail
cd "$(dirname "$0")/.."

threshold=${BENCHCMP_THRESHOLD:-10}
alloc_threshold=${BENCHCMP_ALLOC_THRESHOLD:--1}
pattern=${BENCHCMP_PATTERN:-'Serve|Predict|Route|Wire'}
max_allocs=${BENCHCMP_MAX_ALLOCS:-}

if [ $# -eq 2 ]; then
  old=$1 new=$2
else
  # Newest first by mtime; the comparison runs newest against second-newest.
  mapfile -t snaps < <(ls -1t BENCH_*.json 2>/dev/null || true)
  if [ "${#snaps[@]}" -lt 2 ]; then
    echo "benchcmp.sh: found ${#snaps[@]} BENCH_*.json snapshot(s), need 2; skipping"
    exit 0
  fi
  new=${snaps[0]} old=${snaps[1]}
fi

exec go run ./cmd/benchcmp -threshold "$threshold" -alloc-threshold "$alloc_threshold" \
  -pattern "$pattern" -max-allocs "$max_allocs" "$old" "$new"
