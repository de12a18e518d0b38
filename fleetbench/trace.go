package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotaxo/internal/fleet"
	"iotaxo/internal/serve"
	"iotaxo/internal/uq"
)

// span is one timed call into a layer, recorded from the benchmark's side.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Remote is the part of the span another process reported spending
	// (a replica's server_timings.total_ns on a hop); it is not self time.
	Remote int64 `json:"remote_ns,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// cur is the open root span of the request being replayed, the parent
	// of the hops the router fans out for it.
	cur int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), cur: -1} }

func (t *tracer) begin(name string, parent int32) int32 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int32, remote int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Remote = remote
}

func (t *tracer) current() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

func (t *tracer) setCurrent(id int32) {
	t.mu.Lock()
	t.cur = id
	t.mu.Unlock()
}

// layerTime is the summed self time and count of one span name.
type layerTime struct {
	selfNs int64
	n      int
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover and minus its remote time.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID]) - s.Remote
		lt := out[s.Name]
		lt.selfNs += self
		lt.n++
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	var total, curA, curB int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// hop wraps a fleet.Remote so each sub-request the router sends becomes a
// span under the request's route span. The replica's own total time is the
// span's remote part, so the hop's self time is client, wire and codec.
type hop struct {
	fleet.Predictor
	tr *tracer
	// seq is the index of the request being replayed.
	seq *atomic.Int64

	mu      sync.Mutex
	answers []hopAnswer
}

// hopAnswer is one sub-request a replica served and what it answered.
type hopAnswer struct {
	seq     int
	replica string
	rows    [][]float64
	resp    *serve.PredictResponse
	misses  int // rows the replica evaluated rather than answered from cache
}

func (h *hop) Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	id := h.tr.begin("fleet.hop", h.tr.current())
	resp, err := h.Predictor.Predict(ctx, req)
	var remote int64
	if err == nil && resp.ServerTimings != nil {
		remote = resp.ServerTimings.TotalNs
	}
	h.tr.end(id, remote)
	if err == nil {
		a := hopAnswer{seq: int(h.seq.Load()), replica: h.Name(), rows: req.Rows, resp: resp}
		for _, p := range resp.Predictions {
			if !p.CacheHit {
				a.misses++
			}
		}
		h.mu.Lock()
		h.answers = append(h.answers, a)
		h.mu.Unlock()
	}
	return resp, err
}

// fleetResult is the fleet layer replay's outcome.
type fleetResult struct {
	tally  tally
	allocs float64 // per request, in the benchmark process
	hops   []*hop
}

// fleetReplay sends reqs one at a time through an in-process fleet.Router
// whose replicas are the live ioserve processes. It checks every answer;
// with one request in flight at a time, every replayed row must be a hit.
func fleetReplay(tr *tracer, replicaURLs []string, reqs []request, s *stream, ref *reference) (*fleetResult, error) {
	res := &fleetResult{}
	var seq atomic.Int64
	var backends []fleet.Predictor
	for _, u := range replicaURLs {
		// Named as iorouter names -replicas entries: host:port.
		h := &hop{Predictor: fleet.NewRemote(strings.TrimPrefix(u, "http://"), u, fleet.RemoteConfig{}),
			tr: tr, seq: &seq, answers: make([]hopAnswer, 0, len(reqs))}
		res.hops = append(res.hops, h)
		backends = append(backends, h)
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{}, backends...)
	if err != nil {
		return nil, err
	}
	preqs := predictRequests(s, reqs)
	preds := make([][]serve.PredictionResult, len(reqs))
	errs := make([]error, len(reqs))
	ctx := context.Background()
	a0 := mallocs()
	for i := range preqs {
		seq.Store(int64(i))
		id := tr.begin("fleet.route", -1)
		tr.setCurrent(id)
		resp, err := rt.Route(ctx, &preqs[i])
		tr.end(id, 0)
		tr.setCurrent(-1)
		if err == nil {
			preds[i] = resp.Predictions
		}
		errs[i] = err
	}
	res.allocs = float64(mallocs()-a0) / float64(len(reqs))
	for i, r := range reqs {
		res.tally.add(errs[i], func() error { return res.tally.verifyPredictions(ref, r, preds[i], r.dup) })
	}
	return res, nil
}

func predictRequests(s *stream, reqs []request) []serve.PredictRequest {
	out := make([]serve.PredictRequest, len(reqs))
	for i, r := range reqs {
		out[i] = serve.PredictRequest{System: benchSystem, Rows: s.rows(r)}
	}
	return out
}

// answers lists every sub-request of the replay in replay order.
func (r *fleetResult) answers() []hopAnswer {
	var out []hopAnswer
	for _, h := range r.hops {
		out = append(out, h.answers...)
	}
	slices.SortFunc(out, func(a, b hopAnswer) int {
		if a.seq != b.seq {
			return a.seq - b.seq
		}
		return strings.Compare(a.replica, b.replica)
	})
	return out
}

// subRequests turns the sub-requests the replicas received into requests
// of their own, so the in-process layer replays see a replica's traffic.
func (r *fleetResult) subRequests(s *stream) ([]request, error) {
	var out []request
	seen := map[int]bool{}
	for _, a := range r.answers() {
		req := request{idx: make([]int, len(a.rows)), dup: make([]bool, len(a.rows))}
		for k, row := range a.rows {
			i, ok := s.indexOf(row)
			if !ok {
				return nil, fmt.Errorf("sub-request row not in the stream")
			}
			req.idx[k], req.dup[k] = i, seen[i]
			seen[i] = true
		}
		body, err := encodeRows(a.rows)
		if err != nil {
			return nil, err
		}
		req.body = body
		out = append(out, req)
	}
	return out, nil
}

// serverSide sums what the replicas reported for the replayed requests.
type serverSide struct {
	waves                                    int
	rows                                     int // rows evaluated
	queueNs, assembleNs, evaluateNs, guardNs int64
}

func (r *fleetResult) serverSide() serverSide {
	var ss serverSide
	for _, a := range r.answers() {
		t := a.resp.ServerTimings
		if t == nil || t.EvaluateNs == 0 {
			continue // answered from the cache: no wave
		}
		ss.waves++
		ss.rows += a.misses
		ss.queueNs += t.QueueWaitNs
		ss.assembleNs += t.WaveAssembleNs
		ss.evaluateNs += t.EvaluateNs
		ss.guardNs += t.GuardNs
	}
	return ss
}

// serveOptions are ioserve's default flag values, so the in-process
// replays run the pipeline the fleet runs; TestServeOptionsMatchIoserveDefaults
// fails when they drift apart.
var serveOptions = serve.Options{MaxBatch: 32, MaxDelay: 2 * time.Millisecond, Workers: 2, CacheSize: 1 << 16}

// httpResult is the serve HTTP layer replay's outcome.
type httpResult struct {
	tally  tally
	allocs float64 // per request, harness allocations removed
	bytes  int64
	rows   int
}

// httpReplay runs reqs through NewHandler(...).ServeHTTP on one fresh
// service and through Service.ServeRequest on another, in the same order,
// so both see the same cache states; the difference is request decode and
// response encode.
func httpReplay(tr *tracer, reg *serve.Registry, s *stream, reqs []request, ref *reference) (*httpResult, error) {
	res := &httpResult{}
	svcHTTP := serve.NewService(reg, serveOptions)
	defer svcHTTP.Close()
	svcReq := serve.NewService(reg, serveOptions)
	defer svcReq.Close()
	handler := serve.NewHandler(svcHTTP, serve.HandlerConfig{})
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	ctx := context.Background()

	serveHTTP := func(h http.Handler, body []byte, traced bool) *httptest.ResponseRecorder {
		hr := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		id := int32(-1)
		if traced {
			id = tr.begin("serve.http", -1)
		}
		h.ServeHTTP(rec, hr)
		if traced {
			tr.end(id, 0)
		}
		return rec
	}
	for _, r := range s.warm {
		serveHTTP(handler, r.body, false)
		if _, _, err := svcReq.ServeRequest(ctx, &serve.PredictRequest{System: benchSystem, Rows: s.rows(r)}); err != nil {
			return nil, err
		}
	}

	// The harness's own allocations (request and recorder) are measured on
	// a handler that does nothing and taken off.
	a0 := mallocs()
	for _, r := range reqs {
		serveHTTP(noop, r.body, false)
	}
	harness := mallocs() - a0

	recs := make([]*httptest.ResponseRecorder, len(reqs))
	a0 = mallocs()
	for i, r := range reqs {
		recs[i] = serveHTTP(handler, r.body, true)
	}
	res.allocs = float64(int64(mallocs()-a0)-int64(harness)) / float64(len(reqs))

	preqs := predictRequests(s, reqs)
	for i := range preqs {
		id := tr.begin("serve.request", -1)
		_, _, err := svcReq.ServeRequest(ctx, &preqs[i])
		tr.end(id, 0)
		if err != nil {
			return nil, fmt.Errorf("ServeRequest: %w", err)
		}
	}
	for i, r := range reqs {
		rec := recs[i]
		res.bytes += int64(len(r.body) + rec.Body.Len())
		res.rows += len(r.idx)
		var err error
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("in-process handler: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		res.tally.add(err, func() error { return res.tally.verify(ref, r, rec.Body.Bytes(), r.dup) })
	}
	return res, nil
}

// batch is one request's cache misses, the rows the batcher and the
// evaluation kernels see.
type batch [][]float64

// cacheResult is the cache layer replay's outcome.
type cacheResult struct {
	lookups, hits int
	misses        []batch
}

// cacheReplay looks every row up with HashKey plus Cache.Get on a fresh
// cache (one span per request) and inserts each miss afterwards with its
// reference answer, so later duplicates hit as they do in the service. As
// in Service.predict, a row that repeats an earlier miss of the same
// request rides on that evaluation and counts as a hit.
func cacheReplay(tr *tracer, mv *serve.ModelVersion, s *stream, reqs []request, ref *reference) *cacheResult {
	res := &cacheResult{}
	c := serve.NewCache(serveOptions.CacheSize)
	missIdx := make([]int, 0, 64)
	for _, r := range reqs {
		missIdx = missIdx[:0]
		id := tr.begin("cache.lookup", -1)
		for _, i := range r.idx {
			row := s.table[i]
			if _, ok := c.Get(serve.HashKey(mv.System, mv.Version, row), row, mv); !ok && !slices.Contains(missIdx, i) {
				missIdx = append(missIdx, i)
			}
		}
		tr.end(id, 0)
		res.lookups += len(r.idx)
		res.hits += len(r.idx) - len(missIdx)
		if len(missIdx) == 0 {
			continue
		}
		b := make(batch, len(missIdx))
		for k, i := range missIdx {
			row := s.table[i]
			b[k] = row
			g := ref.guards[i]
			c.Put(serve.HashKey(mv.System, mv.Version, row), row, mv, serve.Result{PredLog: ref.logs[i], Guard: &g})
		}
		res.misses = append(res.misses, b)
	}
	return res
}

// batcherResult sums the WaveTiming of every submitted wave.
type batcherResult struct {
	waves               int
	queueNs, assembleNs int64
}

// batcherReplay submits each request's misses as one wave to a fresh
// batcher with ioserve's defaults, one wave at a time.
func batcherReplay(tr *tracer, mv *serve.ModelVersion, misses []batch) (*batcherResult, error) {
	b := serve.NewBatcher(serveOptions.MaxBatch, serveOptions.MaxDelay, serveOptions.Workers, nil)
	defer b.Close()
	res := &batcherResult{}
	ctx := context.Background()
	for _, rows := range misses {
		id := tr.begin("batcher.wave", -1)
		_, wt, err := b.SubmitWave(ctx, mv, rows)
		tr.end(id, 0)
		if err != nil {
			return nil, fmt.Errorf("SubmitWave: %w", err)
		}
		res.waves++
		res.queueNs += wt.QueueNs
		res.assembleNs += wt.AssembleNs
	}
	return res, nil
}

// evalResult is the evaluation kernels' replay outcome.
type evalResult struct {
	rows     int // per pass
	passes   int // traced passes, each recorded in the spans
	uqAllocs float64
	// untraced and traced are the median wall times of the two kinds of
	// pass.
	untraced, traced time.Duration
}

// evalPasses is how many untraced and traced passes evalReplay alternates.
const evalPasses = 5

// evalReplay runs the evaluation kernels the batcher runs on each miss
// batch: Flat.PredictAllInto, Scaler.TransformRow per row,
// Ensemble.PredictBatchInto and GuardConfig.Diagnose per row. After a
// warm-up pass it alternates untraced passes with traced ones (one span
// per kernel per batch); their median times give the tracing overhead.
func evalReplay(tr *tracer, mv *serve.ModelVersion, misses []batch) (*evalResult, error) {
	res := &evalResult{passes: evalPasses}
	maxRows := 0
	for _, b := range misses {
		res.rows += len(b)
		maxRows = max(maxRows, len(b))
	}
	nf := len(mv.Columns)
	flat := mv.Flat()
	logs := make([]float64, maxRows)
	scaledBuf := make([]float64, maxRows*nf)
	scaled := make([][]float64, maxRows)
	for i := range scaled {
		scaled[i] = scaledBuf[i*nf : (i+1)*nf]
	}
	preds := make([]uq.Prediction, maxRows)
	guards := make([]serve.Guard, maxRows)
	var scratch uq.BatchScratch

	pass := func(traced bool) (time.Duration, error) {
		phase := func(name string, f func()) {
			if !traced {
				f()
				return
			}
			id := tr.begin(name, -1)
			f()
			tr.end(id, 0)
		}
		start := time.Now()
		for _, rows := range misses {
			n := len(rows)
			phase("gbt.flat", func() { flat.PredictAllInto(rows, logs[:n]) })
			var err error
			phase("dataset.scale", func() {
				for i, row := range rows {
					if err = mv.Scaler.TransformRow(row, scaled[i]); err != nil {
						return
					}
				}
			})
			if err != nil {
				return 0, fmt.Errorf("TransformRow: %w", err)
			}
			phase("uq.ensemble", func() { mv.Ensemble.PredictBatchInto(scaled[:n], preds[:n], &scratch) })
			phase("guard.diagnose", func() {
				for i := range n {
					guards[i] = mv.Guard.Diagnose(preds[i])
				}
			})
		}
		return time.Since(start), nil
	}
	if _, err := pass(false); err != nil {
		return nil, err
	}
	var untraced, traced []float64
	for range evalPasses {
		u, err := pass(false)
		if err != nil {
			return nil, err
		}
		t, err := pass(true)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, float64(u))
		traced = append(traced, float64(t))
	}
	res.untraced, res.traced = time.Duration(medianFloat(untraced)), time.Duration(medianFloat(traced))

	a0 := mallocs()
	for _, rows := range misses {
		mv.Ensemble.PredictBatchInto(scaled[:len(rows)], preds[:len(rows)], &scratch)
	}
	res.uqAllocs = float64(mallocs()-a0) / float64(max(len(misses), 1))
	return res, nil
}
