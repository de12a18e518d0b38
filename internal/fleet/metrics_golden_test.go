package fleet

import (
	"bytes"
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"iotaxo/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata")

// goldenReplicaBody is a fixed replica exposition for the fleet scrape:
// counters and a histogram to merge, gauges that stay per-replica, and the
// resilience families every ioserve started with -reload-interval exposes.
func goldenReplicaBody(requests, slow int) []byte {
	var buf bytes.Buffer
	buf.WriteString("# HELP ioserve_requests_total Predict calls served.\n# TYPE ioserve_requests_total counter\n")
	buf.WriteString("ioserve_requests_total " + strconv.Itoa(requests) + "\n")
	buf.WriteString("# HELP ioserve_request_latency_seconds Predict call latency.\n# TYPE ioserve_request_latency_seconds histogram\n")
	buf.WriteString("ioserve_request_latency_seconds_bucket{le=\"0.001\"} " + strconv.Itoa(requests-slow) + "\n")
	buf.WriteString("ioserve_request_latency_seconds_bucket{le=\"+Inf\"} " + strconv.Itoa(requests) + "\n")
	buf.WriteString("ioserve_request_latency_seconds_sum 0.0625\n")
	buf.WriteString("ioserve_request_latency_seconds_count " + strconv.Itoa(requests) + "\n")
	buf.WriteString("# HELP ioserve_admission_inflight Currently admitted requests.\n# TYPE ioserve_admission_inflight gauge\nioserve_admission_inflight 1\n")
	buf.WriteString("# HELP ioserve_active_version The serving-default model version per system.\n# TYPE ioserve_active_version gauge\nioserve_active_version{system=\"theta\"} 2\n")
	buf.WriteString("# HELP ioserve_breaker_state Circuit breaker state (0 closed, 1 half-open, 2 open).\n# TYPE ioserve_breaker_state gauge\nioserve_breaker_state{name=\"reload\"} 0\n")
	buf.WriteString("# HELP ioserve_breaker_trips_total Times each breaker transitioned closed/half-open to open.\n# TYPE ioserve_breaker_trips_total counter\nioserve_breaker_trips_total{name=\"reload\"} " + strconv.Itoa(slow) + "\n")
	buf.WriteString("# HELP ioserve_breaker_failures_total Operation failures observed by each breaker.\n# TYPE ioserve_breaker_failures_total counter\nioserve_breaker_failures_total{name=\"reload\"} " + strconv.Itoa(2*slow) + "\n")
	return buf.Bytes()
}

// TestRouterMetricsExpositionGolden pins every family the router's
// /metrics renders — router counters, per-replica breakers, router traces,
// membership events, the fleet scrape view and the SLO series — from fixed
// observations on injected clocks.
func TestRouterMetricsExpositionGolden(t *testing.T) {
	clock := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	now := func() time.Time { return clock }
	a, b := newStub("replica-a"), newStub("replica-b")
	rt := newTestRouter(t, RouterConfig{Now: now, TraceEvery: 2, TraceSlowAfter: time.Hour}, a, b)
	rt.scrape.Now = now

	rt.metrics.requests.Add(5)
	rt.metrics.errors.Add(1)
	rt.metrics.failovers.Add(1)
	rt.metrics.dispatched("replica-a", 7)
	rt.metrics.dispatched("replica-a", 2)
	rt.metrics.dispatched("replica-b", 4)
	rt.metrics.replicaError("replica-b")
	rt.replicas["replica-b"].breaker.Failure()

	for _, ft := range []obs.FleetTrace{
		{ID: 1, Err: "replica down"},
		{ID: 2, TotalNs: int64(2 * time.Hour)},
		{ID: 3}, {ID: 4}, {ID: 5},
	} {
		rt.tracer.Finish(&ft)
	}

	rt.memlog.Record("replica-a", obs.MemberEventRegister, "")
	rt.memlog.Record("replica-a", obs.MemberEventAdmit, "")
	rt.memlog.Record("replica-b", "custom_kind", "")

	if err := rt.scrape.Record("replica-a", goldenReplicaBody(12, 1)); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(500 * time.Millisecond)
	if err := rt.scrape.Record("replica-b", goldenReplicaBody(30, 2)); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(1250 * time.Millisecond)

	specs, err := obs.ParseSLO("predict:p99=25ms,avail=99.9")
	if err != nil {
		t.Fatal(err)
	}
	slo := obs.NewSLO(specs)
	slo.Now = now
	slo.Observe("predict", 200, 3*time.Millisecond)
	slo.Observe("predict", 503, time.Millisecond)

	rec := httptest.NewRecorder()
	NewHandler(rt, HandlerConfig{SLO: slo}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := rec.Body.Bytes()

	path := filepath.Join("testdata", "router_metrics.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s mismatch (rerun with -update to accept):\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// reloadStub is a stub replica whose exposition carries the breaker
// families every ioserve started with -reload-interval exposes.
type reloadStub struct{ *stubReplica }

func (s reloadStub) Metrics(ctx context.Context) ([]byte, error) { return goldenReplicaBody(3, 1), nil }

// TestRouterMetricsFamiliesUnique: with replica breaker families merged in
// from the fleet scrape, the router's /metrics still declares every family
// exactly once — Prometheus rejects an exposition with a duplicate family.
func TestRouterMetricsFamiliesUnique(t *testing.T) {
	rt := newTestRouter(t, RouterConfig{}, reloadStub{newStub("replica-0")})
	rt.ProbeOnce()
	rec := httptest.NewRecorder()
	Handler(rt).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `ioserve_breaker_trips_total{name="reload"} 1`) {
		t.Fatalf("merged replica breaker series missing:\n%s", body)
	}
	declared := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if fields := strings.Fields(line); len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			declared[fields[2]]++
		}
	}
	for name, n := range declared {
		if n != 1 {
			t.Errorf("family %s declared %d times", name, n)
		}
	}
	families, err := obs.ParsePromText([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(families) != len(declared) {
		t.Errorf("parsed %d families from %d declarations", len(families), len(declared))
	}
}
