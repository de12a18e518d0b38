#!/usr/bin/env bash
# Runs the tier-2 benchmark suite (with -benchmem, so allocs/op and B/op
# land in the snapshot for the benchcmp alloc tripwire) and records the
# results as BENCH_<date>.json so the performance trajectory is tracked
# per commit.
#
#   make bench                 # full training-bound + serving suite
#   make bench-smoke           # two fast benchmarks (CI smoke)
#   BENCH_TIME=3x make bench   # more iterations for stabler numbers
#
# Environment:
#   BENCH_PATTERN  go test -bench regexp (default: the training-bound
#                  figure benchmarks, the serving comparisons, and the
#                  wire layers and HTTP paths)
#   BENCH_TIME     go test -benchtime (default 1x)
#   BENCH_OUT      output file (default BENCH_$(date +%Y%m%d).json)
set -euo pipefail
cd "$(dirname "$0")/.."

pattern=${BENCH_PATTERN:-'^(BenchmarkFig1a|BenchmarkFig3|BenchmarkModelZoo|BenchmarkServeDupHeavyCacheOn|BenchmarkServeDupHeavyCacheOff|BenchmarkServeBatch16|BenchmarkWireDecode16|BenchmarkWireEncode16|BenchmarkServeHTTP16|BenchmarkRouteHTTP16)$'}
benchtime=${BENCH_TIME:-1x}
out=${BENCH_OUT:-BENCH_$(date +%Y%m%d).json}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem -timeout 3600s . | tee "$tmp"
go run ./cmd/benchjson < "$tmp" > "$out"
echo "wrote $out"
