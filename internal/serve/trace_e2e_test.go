package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iotaxo/internal/obs"
)

// newTracedServer builds an httptest server over a tracing-enabled service
// (every request head-sampled) with the admin endpoints token-gated.
func newTracedServer(t *testing.T, token string) (*httptest.Server, *Service) {
	t.Helper()
	reg := fixtureRegistry(t)
	svc := NewService(reg, Options{
		MaxBatch:   16,
		MaxDelay:   time.Millisecond,
		CacheSize:  4096,
		TraceEvery: 1,
	})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{AdminToken: token}))
	t.Cleanup(ts.Close)
	return ts, svc
}

// TestE2ETracedRequest drives a real request through HTTP and checks the
// whole observability contract: the response carries server timings and a
// trace ID, the retained span tree has queue_wait / evaluate / guard
// populated as separate spans, and the stage attribution is consistent
// with the end-to-end latency.
func TestE2ETracedRequest(t *testing.T) {
	ts, _ := newTracedServer(t, "")
	frame, _, _ := fixture(t)

	resp, pr := postPredict(t, ts.URL, PredictRequest{System: "theta", Rows: frame.Rows()[:8]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	if pr.TraceID == "" {
		t.Fatal("response carries no trace_id with sampling on")
	}
	if got := resp.Header.Get("X-Trace-Id"); got != pr.TraceID {
		t.Fatalf("X-Trace-Id header %q != body trace_id %q", got, pr.TraceID)
	}
	st := pr.ServerTimings
	if st == nil {
		t.Fatal("response carries no server_timings")
	}
	if st.TotalNs <= 0 || st.EvaluateNs <= 0 || st.GuardNs <= 0 {
		t.Fatalf("timings not populated: %+v", st)
	}
	// Stage sums must fit inside the end-to-end wall time: guard is a slice
	// of evaluate, so it is excluded from the sum.
	sum := st.CacheLookupNs + st.QueueWaitNs + st.WaveAssembleNs + st.EvaluateNs + st.FinalizeNs + st.ObserveNs
	if sum > st.TotalNs {
		t.Fatalf("stages sum to %d ns > total %d ns", sum, st.TotalNs)
	}
	if st.GuardNs > st.EvaluateNs {
		t.Fatalf("guard %d ns exceeds its parent evaluate %d ns", st.GuardNs, st.EvaluateNs)
	}
	// Over HTTP the body decode is a timed stage inside the total.
	if st.DecodeNs <= 0 || st.DecodeNs+sum > st.TotalNs {
		t.Fatalf("decode %d ns not inside total %d ns (other stages %d ns)", st.DecodeNs, st.TotalNs, sum)
	}

	// The retained trace's span tree shows the same request with
	// queue_wait, evaluate, and guard each separately populated.
	var detail obs.TraceDetail
	getOK(t, ts.URL+"/v1/trace/"+pr.TraceID, "", &detail)
	if detail.TraceID != pr.TraceID || detail.System != "theta" {
		t.Fatalf("trace detail identity: %+v", detail.TraceSummary)
	}
	spans := map[string]obs.SpanNode{}
	for _, c := range detail.Spans.Children {
		spans[c.Name] = c
	}
	if _, ok := spans["queue_wait"]; !ok {
		t.Errorf("span tree missing queue_wait: %+v", detail.Spans)
	}
	eval, ok := spans["evaluate"]
	if !ok || eval.DurationNs <= 0 {
		t.Fatalf("span tree missing populated evaluate: %+v", detail.Spans)
	}
	if len(eval.Children) != 1 || eval.Children[0].Name != "guard" || eval.Children[0].DurationNs <= 0 {
		t.Fatalf("guard not nested under evaluate with a duration: %+v", eval)
	}
	if spans["decode"].DurationNs != st.DecodeNs || spans["encode"].DurationNs <= 0 {
		t.Errorf("decode/encode spans %+v / %+v, want decode %d ns and a timed encode", spans["decode"], spans["encode"], st.DecodeNs)
	}
	if detail.Spans.DurationNs != st.TotalNs {
		t.Errorf("trace total %d != reported server total %d", detail.Spans.DurationNs, st.TotalNs)
	}

	// The list view includes the trace.
	var listing struct {
		SlowThresholdNs int64              `json:"slow_threshold_ns"`
		Traces          []obs.TraceSummary `json:"traces"`
	}
	getOK(t, ts.URL+"/v1/trace?limit=10", "", &listing)
	found := false
	for _, s := range listing.Traces {
		if s.TraceID == pr.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not in /v1/trace listing (%d traces)", pr.TraceID, len(listing.Traces))
	}
	// The adaptive slow threshold has not armed after one request: the
	// listing reports 0, as the router's does, not MaxInt64.
	if listing.SlowThresholdNs != 0 {
		t.Errorf("slow_threshold_ns = %d before the threshold armed, want 0", listing.SlowThresholdNs)
	}

	// Stage histograms made it to /metrics with the labeled family, and the
	// batcher gauges render.
	metrics := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`ioserve_stage_latency_seconds_bucket{stage="queue_wait",le=`,
		`ioserve_stage_latency_seconds_count{stage="evaluate"}`,
		`ioserve_stage_latency_seconds_count{stage="guard"}`,
		`ioserve_stage_latency_seconds_count{stage="decode"} 1`,
		`ioserve_stage_latency_seconds_count{stage="encode"} 1`,
		"ioserve_batch_queue_depth",
		"ioserve_batch_inflight_waves",
		"ioserve_traces_kept_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTraceEndpointsAuthn: with an admin token configured, the trace
// endpoints reject anonymous reads and accept the bearer token.
func TestTraceEndpointsAuthn(t *testing.T) {
	const token = "trace-secret"
	ts, _ := newTracedServer(t, token)
	frame, _, _ := fixture(t)
	_, pr := postPredict(t, ts.URL, PredictRequest{System: "theta", Rows: frame.Rows()[:4]})
	if pr.TraceID == "" {
		t.Fatal("no trace retained")
	}
	for _, path := range []string{"/v1/trace", "/v1/trace/" + pr.TraceID} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("GET %s without token: status %d, want 401", path, resp.StatusCode)
		}
	}
	var detail obs.TraceDetail
	getOK(t, ts.URL+"/v1/trace/"+pr.TraceID, token, &detail)
	if detail.TraceID != pr.TraceID {
		t.Fatalf("authorized trace read returned %+v", detail.TraceSummary)
	}
}

// TestTraceEndpointsDisabled: without TraceEvery the endpoints answer 409
// with a hint, and predict responses still carry server timings (stage
// attribution is always on) but no trace ID.
func TestTraceEndpointsDisabled(t *testing.T) {
	reg := fixtureRegistry(t)
	svc := NewService(reg, Options{MaxBatch: 16, MaxDelay: time.Millisecond, CacheSize: 64})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(Handler(svc))
	t.Cleanup(ts.Close)
	frame, _, _ := fixture(t)
	resp, pr := postPredict(t, ts.URL, PredictRequest{System: "theta", Rows: frame.Rows()[:4]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	if pr.TraceID != "" || resp.Header.Get("X-Trace-Id") != "" {
		t.Fatal("trace ID issued with tracing disabled")
	}
	if pr.ServerTimings == nil || pr.ServerTimings.EvaluateNs <= 0 {
		t.Fatalf("server timings absent with tracing disabled: %+v", pr.ServerTimings)
	}
	r, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("GET /v1/trace with tracing off: status %d, want 409", r.StatusCode)
	}
}

// TestTraceGetErrors covers the detail endpoint's failure answers.
func TestTraceGetErrors(t *testing.T) {
	ts, _ := newTracedServer(t, "")
	resp, err := http.Get(ts.URL + "/v1/trace/zzzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed id: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/trace/00000000000000ff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

// getOK GETs a JSON document, optionally with a bearer token.
func getOK(t *testing.T, url, token string, into any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// getText GETs a plain-text document (the /metrics exposition).
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != MetricsContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, MetricsContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
