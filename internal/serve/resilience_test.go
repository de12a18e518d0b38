package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
	"iotaxo/internal/resilience/chaos"
)

// TestBatcherDeadlineMidQueue is the regression for pooled-request
// lifecycle under cancellation: requests whose context expires while they
// sit in the open wave must come back with the context error, must not
// leak pooled waveReqs or deliver into an abandoned channel (the race
// detector guards that half), and must leave the batcher fully
// serviceable.
func TestBatcherDeadlineMidQueue(t *testing.T) {
	_, _, v2 := fixture(t)
	m := &Metrics{}
	// One worker pinned in a 40ms evaluation: everything submitted behind
	// it queues past its own deadline, so the flush-side drop path (and the
	// submitter-side abandon CAS) answer all of them.
	inj := chaos.NewInjector(chaos.Config{Latency: 40 * time.Millisecond, LatencyProb: 1}, 1)
	b := newBatcher(64, time.Millisecond, 1, m, inj)
	defer b.Close()

	var pin sync.WaitGroup
	pin.Add(1)
	var pinErr error
	go func() {
		defer pin.Done()
		_, pinErr = submitRow(b, context.Background(), v2, make([]float64, len(v2.Columns)))
	}()
	time.Sleep(10 * time.Millisecond) // let the worker enter the slow evaluation

	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			_, errs[i] = submitRow(b, ctx, v2, make([]float64, len(v2.Columns)))
		}(i)
	}
	wg.Wait()
	pin.Wait()
	if pinErr != nil {
		t.Fatalf("pinning submission failed: %v", pinErr)
	}
	for i, err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("submit %d: err = %v, want context.DeadlineExceeded", i, err)
		}
	}
	// The worker discards the expired waves before evaluating anything:
	// only the pinning request's row was ever batched.
	if got := m.DeadlineDropped.Load(); got == 0 {
		t.Error("no waves counted as deadline-dropped")
	}
	if got := m.BatchedRows.Load(); got != 1 {
		t.Errorf("%d rows evaluated, want 1 (expired rows must not be)", got)
	}
	// Recycled waveReqs must be clean: a fresh submission still works.
	res, err := submitRow(b, context.Background(), v2, make([]float64, len(v2.Columns)))
	if err != nil {
		t.Fatalf("batcher unserviceable after deadline storm: %v", err)
	}
	if res.PredLog != v2.Model.Predict(make([]float64, len(v2.Columns))) {
		t.Error("post-storm prediction does not match direct evaluation")
	}
}

func TestBatcherPanicIsolation(t *testing.T) {
	_, _, v2 := fixture(t)
	m := &Metrics{}
	inj := chaos.NewInjector(chaos.Config{PanicProb: 1}, 1)
	b := newBatcher(8, time.Millisecond, 1, m, inj)
	defer b.Close()
	// Every evaluation panics; every submission must get an error back and
	// the worker must survive to serve the next wave.
	for i := 0; i < 3; i++ {
		_, err := submitRow(b, context.Background(), v2, make([]float64, len(v2.Columns)))
		if !errors.Is(err, ErrEvalPanic) {
			t.Fatalf("submit %d: err = %v, want ErrEvalPanic", i, err)
		}
	}
	if got := m.PanicsRecovered.Load(); got < 3 {
		t.Errorf("PanicsRecovered = %d, want >= 3", got)
	}
}

func TestBatcherChaosError(t *testing.T) {
	_, _, v2 := fixture(t)
	inj := chaos.NewInjector(chaos.Config{ErrorProb: 1}, 1)
	b := newBatcher(8, time.Millisecond, 1, &Metrics{}, inj)
	defer b.Close()
	_, err := submitRow(b, context.Background(), v2, make([]float64, len(v2.Columns)))
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want chaos.ErrInjected", err)
	}
}

func TestServerAdmissionSheds(t *testing.T) {
	reg := fixtureRegistry(t)
	svc := NewService(reg, Options{MaxBatch: 16, MaxDelay: time.Millisecond})
	t.Cleanup(svc.Close)
	gate := resilience.NewGate(resilience.GateConfig{MaxInflight: 1, HardLimit: 2, RetryAfter: 2 * time.Second})
	set := resilience.NewSet()
	set.SetGate(gate)
	svc.Metrics().RegisterCollector(func() []obs.PromFamily { return set.Families("ioserve") })
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{Gate: gate, Resilience: set}))
	t.Cleanup(ts.Close)
	frame, _, _ := fixture(t)

	// Hold the only slot: the next predict must shed with 429 + advice.
	if ok, _ := gate.Admit(resilience.ClassPredict); !ok {
		t.Fatal("setup admit failed")
	}
	resp, _ := postPredict(t, ts.URL, PredictRequest{System: "theta", Rows: [][]float64{frame.Row(0)}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After %q, want 2", resp.Header.Get("Retry-After"))
	}
	gate.Release(-1)

	resp, pr := postPredict(t, ts.URL, PredictRequest{System: "theta", Rows: [][]float64{frame.Row(0)}})
	if resp.StatusCode != http.StatusOK || len(pr.Predictions) != 1 {
		t.Fatalf("post-release predict: status %d, %d predictions", resp.StatusCode, len(pr.Predictions))
	}
	if in := gate.Status().Inflight; in != 0 {
		t.Fatalf("handler leaked a gate slot: inflight=%d", in)
	}

	var buf strings.Builder
	if err := svc.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ioserve_admission_shed_total{reason="queue"} 1`,
		"ioserve_admission_admitted_total 2",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServerDeadline(t *testing.T) {
	reg := fixtureRegistry(t)
	// Every evaluation takes ~50ms, so millisecond deadlines expire in the
	// queue and generous ones ride through.
	inj := chaos.NewInjector(chaos.Config{Latency: 50 * time.Millisecond, LatencyProb: 1}, 1)
	svc := NewService(reg, Options{MaxBatch: 16, MaxDelay: time.Millisecond, Workers: 1, CacheSize: 0, Chaos: inj})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{DefaultDeadline: 2 * time.Second}))
	t.Cleanup(ts.Close)
	frame, _, _ := fixture(t)
	row := [][]float64{frame.Row(0)}

	post := func(timeoutMs string) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(PredictRequest{System: "theta", Rows: row})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if timeoutMs != "" {
			req.Header.Set(DeadlineHeader, timeoutMs)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// The generous default deadline serves despite the injected latency.
	if resp := post(""); resp.StatusCode != http.StatusOK {
		t.Fatalf("default deadline: status %d", resp.StatusCode)
	}
	// Pin the lone worker in a slow evaluation, then send a request whose
	// 5ms header deadline expires while it queues behind it: the wave is
	// dropped before evaluation and the request answered 504.
	pinDone := make(chan error, 1)
	go func() {
		raw, _ := json.Marshal(PredictRequest{System: "theta", Rows: row})
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(string(raw)))
		if err == nil {
			resp.Body.Close()
		}
		pinDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the worker enter the slow evaluation
	if resp := post("5"); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("5ms header deadline: status %d, want 504", resp.StatusCode)
	}
	if err := <-pinDone; err != nil {
		t.Fatalf("pinning request failed: %v", err)
	}
	// One more served request: the queue is FIFO, so by the time its
	// response arrives the worker has drained (and dropped) the expired
	// wave sitting ahead of it.
	if resp := post(""); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-expiry predict: status %d", resp.StatusCode)
	}
	if got := svc.Metrics().DeadlineDropped.Load(); got == 0 {
		t.Error("expired request was not dropped from its wave")
	}
	// Malformed header values are a client error, not a served request.
	if resp := post("soon"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad header: status %d, want 400", resp.StatusCode)
	}
	if resp := post("-3"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative header: status %d, want 400", resp.StatusCode)
	}
}

// TestReloaderBreaker pins the breaker's failure taxonomy: a corrupt
// version dir is the skip-and-keep-serving policy (poll errors, breaker
// stays closed), a wholesale scan failure is an outage signal (breaker
// trips), and a forced poll runs even while open, acting as the manual
// probe that closes it.
func TestReloaderBreaker(t *testing.T) {
	_, v1, _ := fixture(t)
	dir := t.TempDir()
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	reg, err := LoadRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(reg, Options{MaxBatch: 16, MaxDelay: time.Millisecond})
	t.Cleanup(svc.Close)
	rel, err := NewReloader(svc, dir, 0) // manual polls
	if err != nil {
		t.Fatal(err)
	}
	br := resilience.NewBreaker("reload", resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	rel.SetResilience(br)

	// A chaos-corrupted version dir fails to load but the scan succeeded:
	// poll reports the error, the breaker stays closed, serving continues.
	inj := chaos.NewInjector(chaos.Config{CorruptProb: 1}, 3)
	if _, err := inj.CorruptRegistry(dir); err != nil {
		t.Fatal(err)
	}
	stats, err := rel.Poll()
	if err == nil || stats.Failed == 0 {
		t.Fatalf("corrupt dir: stats %+v err %v, want a counted failure", stats, err)
	}
	if errors.Is(err, errScanFailed) {
		t.Fatal("per-dir corruption misclassified as a wholesale scan failure")
	}
	if st := br.Status(); st.State != resilience.StateClosed {
		t.Fatalf("breaker %s after per-dir corruption, want closed", st.State)
	}
	if _, err := reg.Get("theta", 1); err != nil {
		t.Fatalf("live bundle stopped serving: %v", err)
	}

	// Destroying the root makes the scan itself fail: one failure at
	// threshold 1 trips the breaker.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Poll(); !errors.Is(err, errScanFailed) {
		t.Fatalf("destroyed root: err %v, want errScanFailed", err)
	}
	if st := br.Status(); st.State != resilience.StateOpen {
		t.Fatalf("breaker %s after scan failure, want open", st.State)
	}

	// Restore the root: a forced poll runs despite the open breaker (the
	// ticker loop is what Allow gates) and its success closes the circuit.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveVersion(dir, v1); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Poll(); err != nil {
		t.Fatalf("forced poll after restore: %v", err)
	}
	if st := br.Status(); st.State != resilience.StateClosed {
		t.Fatalf("breaker %s after successful probe, want closed", st.State)
	}
}

func TestResilienceEndpoint(t *testing.T) {
	reg := fixtureRegistry(t)
	svc := NewService(reg, Options{MaxBatch: 16, MaxDelay: time.Millisecond})
	t.Cleanup(svc.Close)

	set := resilience.NewSet()
	set.SetGate(resilience.NewGate(resilience.GateConfig{MaxInflight: 8}))
	set.NewBreaker("reload", resilience.BreakerConfig{})
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{Resilience: set}))
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/resilience")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st resilience.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil || st.Admission.MaxInflight != 8 || len(st.Breakers) != 1 {
		t.Fatalf("status %+v", st)
	}

	// Without a configured resilience layer the endpoint reports 409, like
	// the other unconfigured subsystem endpoints.
	bare := httptest.NewServer(NewHandler(svc, HandlerConfig{}))
	t.Cleanup(bare.Close)
	resp2, err := http.Get(bare.URL + "/v1/resilience")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("unconfigured status %d, want 409", resp2.StatusCode)
	}
}
