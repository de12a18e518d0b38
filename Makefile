# Developer entry points. `make test` is the tier-1 gate; `make bench`
# records a BENCH_<date>.json snapshot of the tier-2 benchmarks.

GO ?= go

.PHONY: all build test vet fmt bench bench-smoke benchcmp chaos-smoke fleet-smoke membership-smoke slo-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# Full tier-2 benchmark snapshot -> BENCH_<date>.json (see scripts/bench.sh
# for the BENCH_PATTERN / BENCH_TIME / BENCH_OUT knobs).
bench:
	./scripts/bench.sh

# Cheap benchmarks as a CI smoke signal: two fast figure benchmarks prove
# the harness and the JSON recorder still work, and the serving trio, the
# wire codec layers and the replica and routed HTTP paths run with
# -benchmem so benchcmp can gate the hot path's ns/op and allocs/op
# against the committed snapshot.
bench-smoke:
	BENCH_PATTERN='^(BenchmarkFig1b|BenchmarkTableT1|BenchmarkServeDupHeavyCacheOn|BenchmarkServeDupHeavyCacheOff|BenchmarkServeBatch16|BenchmarkWireDecode16|BenchmarkWireEncode16|BenchmarkServeHTTP16|BenchmarkRouteHTTP16)$$' ./scripts/bench.sh

# Diff the two newest BENCH_*.json snapshots; fails on >10% regression in
# the serving/predict, wire and routed benchmarks, or on any change of the
# paper invariants (see scripts/benchcmp.sh for knobs).
benchcmp:
	./scripts/benchcmp.sh

# Resilience smoke: ioserve under fault injection + admission control,
# saturated by ioload, asserting sheds happen, nothing crashes, and
# SIGTERM drains cleanly (see scripts/chaos_smoke.sh for knobs).
chaos-smoke:
	./scripts/chaos_smoke.sh

# Fleet smoke: iorouter over three ioserve replicas sharing one registry
# tree — kill a replica mid-run and assert clean ejection with zero
# request errors, rejoin on restart, and a graceful router drain (see
# scripts/fleet_smoke.sh for knobs).
fleet-smoke:
	./scripts/fleet_smoke.sh

# Membership smoke: the self-healing fleet lifecycle — zero-replica router
# boot, three replicas self-register, kill -9 → lease-expiry ejection,
# SIGTERM under load → coordinated drain with zero lost requests, router
# restart → snapshot recovery, drain to a clean final state (see
# scripts/membership_smoke.sh for knobs).
membership-smoke:
	./scripts/membership_smoke.sh

# Observability smoke: iorouter with SLO tracking and tracing over a traced
# ioserve replica — nominal load must meet the objectives, a stitched
# cross-process trace must be retrievable, and a latency-chaos replica must
# burn the error budget (see scripts/slo_smoke.sh for knobs).
slo-smoke:
	./scripts/slo_smoke.sh
