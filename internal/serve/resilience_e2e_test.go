package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/resilience"
	"iotaxo/internal/resilience/chaos"
)

// TestOverloadShedsAndBoundsTail is the resilience acceptance check: drive
// the server far past its admission cap and require that (a) load is
// actually shed, (b) every rejection is a clean 429 (no 5xx, no transport
// breakage), and (c) the requests that *were* admitted keep a tail close
// to the unloaded baseline — shedding exists to protect the latency of
// admitted work, so an overloaded p99 that balloons means the gate failed
// at its one job.
func TestOverloadShedsAndBoundsTail(t *testing.T) {
	reg := fixtureRegistry(t)
	// Injected evaluation latency makes queueing real with one worker; the
	// cache is off so repeated rows cannot bypass the batcher.
	inj := chaos.NewInjector(chaos.Config{Latency: 2 * time.Millisecond, LatencyProb: 1}, 1)
	svc := NewService(reg, Options{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 1, CacheSize: 0, Chaos: inj})
	t.Cleanup(svc.Close)
	gate := resilience.NewGate(resilience.GateConfig{MaxInflight: 4})
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{Gate: gate}))
	t.Cleanup(ts.Close)
	frame, _, _ := fixture(t)

	// drain reads a response body to EOF and closes it. The transport only
	// reuses a connection whose body was fully read, so an undrained 429
	// would make its client redial for the next request.
	drain := func(resp *http.Response) error {
		_, err := io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		return err
	}

	// run issues total requests from conc workers, returning the status
	// counts and the sorted latencies of the 200s. Each worker encodes its
	// bodies and opens its one keep-alive connection before the timed
	// phase starts: the gate sees a request only once it is accepted and
	// parsed, so TCP connects, the serial httptest accept loop and the
	// client's own encoding are outside what it can bound, and on shared
	// cores they must not compete with the admitted work being measured.
	run := func(conc, total int) (map[int]int, []time.Duration) {
		t.Helper()
		var mu sync.Mutex
		statuses := make(map[int]int)
		var lats []time.Duration
		var wg, connected sync.WaitGroup
		begin := make(chan struct{})
		per := total / conc
		for w := 0; w < conc; w++ {
			wg.Add(1)
			connected.Add(1)
			go func(w int) {
				defer wg.Done()
				tr := &http.Transport{}
				defer tr.CloseIdleConnections()
				client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
				bodies := make([][]byte, per)
				var err error
				for i := range bodies {
					if bodies[i], err = json.Marshal(PredictRequest{System: "theta", Rows: [][]float64{frame.Row((w*per + i) % frame.Len())}}); err != nil {
						break
					}
				}
				if err == nil {
					var resp *http.Response
					if resp, err = client.Get(ts.URL + "/healthz"); err == nil {
						err = drain(resp)
					}
				}
				connected.Done()
				if err != nil {
					t.Error(err)
					return
				}
				<-begin
				for _, raw := range bodies {
					start := time.Now()
					resp, err := client.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(raw))
					if err != nil {
						t.Error(err)
						return
					}
					err = drain(resp)
					took := time.Since(start)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					statuses[resp.StatusCode]++
					if resp.StatusCode == http.StatusOK {
						lats = append(lats, took)
					}
					mu.Unlock()
				}
			}(w)
		}
		connected.Wait()
		close(begin)
		wg.Wait()
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		return statuses, lats
	}
	p99 := func(lats []time.Duration) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(0.99*float64(len(lats)-1))]
	}

	// Baseline: concurrency at the soft cap — nothing sheds.
	baseStatuses, baseLats := run(4, 48)
	if baseStatuses[http.StatusOK] != 48 {
		t.Fatalf("unloaded baseline not clean: %v", baseStatuses)
	}
	basep99 := p99(baseLats)

	// Overload: 8x the admission cap.
	statuses, lats := run(32, 256)
	shed := statuses[http.StatusTooManyRequests]
	served := statuses[http.StatusOK]
	if shed == 0 {
		t.Fatalf("no sheds at 8x the admission cap: %v", statuses)
	}
	if served == 0 {
		t.Fatalf("shedding replaced service entirely: %v", statuses)
	}
	for code, n := range statuses {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Errorf("%d requests failed with %d; overload must shed cleanly", n, code)
		}
	}
	// The tail bound anchors on max(baseline, 10ms): CI machines make
	// single-digit-millisecond baselines too noisy to multiply directly.
	// Race instrumentation inflates evaluation several-fold, so under
	// -race the shed/clean-429 contract is still enforced above but the
	// latency bound is informational only.
	floor := 10 * time.Millisecond
	bound := 2 * basep99
	if bound < 2*floor {
		bound = 2 * floor
	}
	if got := p99(lats); got > bound && !raceEnabled {
		t.Errorf("admitted p99 under overload = %v, want <= %v (baseline %v): the gate admitted more than it can serve",
			got, bound, basep99)
	}
	t.Logf("baseline p99 %v; overload: %d served (p99 %v), %d shed", basep99, served, p99(lats), shed)
}
