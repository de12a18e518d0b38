package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"iotaxo/internal/resilience/chaos"
	"iotaxo/internal/uq"
)

// Micro-batching worker pool. Concurrent predict calls are coalesced into
// batches of up to MaxBatch rows — the standard online-serving trade of
// amortized evaluation (one flat tree walk, one member-parallel ensemble
// pass per batch instead of per row). Submissions travel as *waves*: all of
// one request's miss rows in a single queue entry, so a worker picks a
// whole request up in one channel operation and a multi-row request never
// splits across workers.
//
// Batching is adaptive, driven by queue pressure rather than a clock: a
// worker drains every queued wave (up to MaxBatch rows) and evaluates the
// moment the queue empties. Under load the queue refills while workers
// evaluate, so batches grow on their own; when traffic is light nothing
// artificial delays a request. The MaxDelay straggler window survives only
// for the case where batching has not yet paid anything — a lone single-row
// wave — which may wait up to MaxDelay for a partner. Batches are grouped
// per model version before evaluation, so mixed-system traffic shares the
// same pool.

// ErrBatcherClosed is returned for submissions after Close.
var ErrBatcherClosed = errors.New("serve: batcher closed")

// ErrEvalPanic wraps a panic recovered during wave-group evaluation: the
// group failed, the worker survived. Mapped to 502-class statuses by the
// HTTP layer (a server fault, not a client one).
var ErrEvalPanic = errors.New("serve: evaluation panicked")

// waveReq lifecycle states (waveReq.state). A wave starts pending; exactly
// one side wins the CAS race — the worker claiming it to answer, or the
// submitter abandoning it (context done, shutdown) — and whichever side
// loses takes responsibility for recycling the request.
const (
	wavePending uint32 = iota
	waveAnswering
	waveAbandoned
)

// waveReq is one enqueued submission: every miss row of one request bound
// for one model version. Pooled — see waveReqPool.
type waveReq struct {
	// ctx is the submitter's request context; workers check it so a wave
	// whose deadline already expired is dropped before evaluation instead
	// of wasting model work.
	ctx  context.Context
	mv   *ModelVersion
	rows [][]float64
	out  chan waveResp
	// state is the pending/answering/abandoned CAS described above.
	state atomic.Uint32
	// enq / pick stamp the wave's enqueue and worker-pickup instants; the
	// difference is the queue-wait stage, recorded for every wave — even
	// one drained the instant it was queued.
	enq  time.Time
	pick time.Time
}

// WaveTiming attributes one wave's time inside the batcher: queued, riding
// a forming micro-batch, and its group's evaluation split. GuardNs is the
// guardrail slice of EvalNs (scaling + ensemble + diagnosis), not an
// additional phase.
type WaveTiming struct {
	QueueNs    int64
	AssembleNs int64
	EvalNs     int64
	GuardNs    int64
}

// waveResp carries the evaluated results back to the submitter. The
// results slice is pooled; the submitter consumes it and returns it via
// putResults.
type waveResp struct {
	results []Result
	timing  WaveTiming
	err     error
}

// waveReqPool recycles wave requests and their response channels. A
// request is pooled only once its channel is provably empty: after its
// single response was consumed, or after the state CAS proves nobody will
// ever send (the worker saw the abandonment, or the submitter won the
// abandon race before any worker committed). Abandoned-then-answered races
// are resolved by deliver/recycleWave, so no request is ever leaked to the
// garbage collector and no send ever hits a recycled channel.
var waveReqPool = sync.Pool{
	New: func() any { return &waveReq{out: make(chan waveResp, 1)} },
}

// recycleWave clears a wave's request references and returns it to the
// pool. The caller must own the request outright (response consumed, or
// the CAS proved the other side will never touch it again).
func recycleWave(req *waveReq) {
	req.ctx, req.mv, req.rows = nil, nil, nil
	req.state.Store(wavePending)
	waveReqPool.Put(req)
}

// resultsPool recycles the per-wave result slices that cross the response
// channel.
var resultsPool = sync.Pool{New: func() any { return new([]Result) }}

// putResults returns a consumed response slice to the pool, cleared so an
// idle pooled slice pins no guard blocks. Clearing len suffices: a pooled
// slice's backing array is all-zero beyond len by induction (fresh
// allocations are zeroed, getResults exposes only [0,n), and every put
// re-zeroes exactly the prefix that was written).
func putResults(rs []Result) {
	if rs == nil {
		return
	}
	for i := range rs {
		rs[i] = Result{}
	}
	rs = rs[:0]
	resultsPool.Put(&rs)
}

// getResults returns a pooled slice resized to n.
func getResults(n int) []Result {
	rs := *resultsPool.Get().(*[]Result)
	if cap(rs) < n {
		rs = make([]Result, n)
	}
	return rs[:n]
}

// Result is one model evaluation in log10 and linear space, with its
// guardrail annotation (nil when the bundle has no ensemble).
type Result struct {
	PredLog float64
	Pred    float64
	Guard   *Guard
}

// batchTimer abstracts the straggler timer so tests can drive the lone-
// single-row wait deterministically instead of racing a real clock. The
// contract mirrors *time.Timer: after Reset, either the timer fires (a
// value appears on C) or Stop returns true; Stop returning false after a
// Reset means the value is in C and must be drained.
type batchTimer interface {
	Reset(d time.Duration)
	Stop() bool
	C() <-chan time.Time
}

// realTimer is the production batchTimer over time.Timer.
type realTimer struct{ t *time.Timer }

func (r *realTimer) Reset(d time.Duration) { r.t.Reset(d) }
func (r *realTimer) Stop() bool            { return r.t.Stop() }
func (r *realTimer) C() <-chan time.Time   { return r.t.C }

// timerFactory builds one worker's straggler timer, returned stopped and
// drained.
type timerFactory func() batchTimer

func newRealTimer() batchTimer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return &realTimer{t: t}
}

// Batcher coalesces request waves into micro-batches across a worker pool.
type Batcher struct {
	reqs     chan *waveReq
	stop     chan struct{}
	done     chan struct{}
	maxBatch int
	maxDelay time.Duration
	metrics  *Metrics
	// chaos injects faults into wave-group evaluation when wired (nil in
	// production); see internal/resilience/chaos.
	chaos *chaos.Injector
	// newTimer builds each worker's straggler timer (newRealTimer in
	// production; tests inject a hand-driven fake).
	newTimer timerFactory
	// inflight counts waves accepted into the queue but not yet answered;
	// exposed (with the instantaneous queue depth) as a /metrics gauge so
	// batching pressure is visible beyond the cumulative mean batch size.
	inflight atomic.Int64
}

// QueueDepth reports the waves currently sitting in the queue (a
// scrape-time snapshot, not a synchronized count).
func (b *Batcher) QueueDepth() int { return len(b.reqs) }

// InflightWaves reports waves accepted but not yet answered (queued plus
// being evaluated).
func (b *Batcher) InflightWaves() int { return int(b.inflight.Load()) }

// NewBatcher starts workers goroutines collecting micro-batches of up to
// maxBatch rows; a lone single-row wave waits at most maxDelay for company
// (multi-row waves never wait — they are already a batch). metrics may be
// nil.
func NewBatcher(maxBatch int, maxDelay time.Duration, workers int, metrics *Metrics) *Batcher {
	return newBatcher(maxBatch, maxDelay, workers, metrics, nil)
}

// newBatcher additionally wires a chaos injector into wave evaluation
// (Options.Chaos; nil injects nothing).
func newBatcher(maxBatch int, maxDelay time.Duration, workers int, metrics *Metrics, inj *chaos.Injector) *Batcher {
	return newBatcherClocked(maxBatch, maxDelay, workers, metrics, inj, nil)
}

// newBatcherClocked additionally injects the straggler-timer factory (nil
// uses the real clock); batcher tests drive the lone-wave path with a fake.
func newBatcherClocked(maxBatch int, maxDelay time.Duration, workers int, metrics *Metrics, inj *chaos.Injector, tf timerFactory) *Batcher {
	if maxBatch <= 0 {
		maxBatch = 32
	}
	if maxDelay <= 0 {
		maxDelay = 2 * time.Millisecond
	}
	if workers <= 0 {
		workers = 2
	}
	if tf == nil {
		tf = newRealTimer
	}
	b := &Batcher{
		reqs:     make(chan *waveReq, workers*maxBatch),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		maxBatch: maxBatch,
		maxDelay: maxDelay,
		metrics:  metrics,
		chaos:    inj,
		newTimer: tf,
	}
	running := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		running <- struct{}{}
		go func() {
			defer func() { <-running }()
			b.worker()
		}()
	}
	go func() {
		<-b.stop
		for i := 0; i < workers; i++ {
			running <- struct{}{}
		}
		// Workers are gone; fail anything still queued.
		for {
			select {
			case req := <-b.reqs:
				b.deliver(req, waveResp{err: ErrBatcherClosed})
			default:
				close(b.done)
				return
			}
		}
	}()
	return b
}

// Close stops the workers. Queued requests receive ErrBatcherClosed.
func (b *Batcher) Close() {
	close(b.stop)
	<-b.done
}

// SubmitWave evaluates one request's rows against one model version,
// blocking until the worker pool answers or ctx ends. The returned results
// slice is pooled — the caller must finish with it (copying what it keeps)
// and hand it back via putResults. The WaveTiming reports where the wave's
// time went inside the batcher (zero on error paths that never evaluated).
// A context that expires while the wave is queued or evaluating returns
// ctx.Err() immediately (context.DeadlineExceeded for deadlines); the wave
// itself is abandoned via the state CAS and recycled by whichever side
// touches it last, so cancellation never leaks a pooled request.
func (b *Batcher) SubmitWave(ctx context.Context, mv *ModelVersion, rows [][]float64) ([]Result, WaveTiming, error) {
	if err := ctx.Err(); err != nil {
		return nil, WaveTiming{}, err
	}
	req := waveReqPool.Get().(*waveReq)
	req.ctx, req.mv, req.rows = ctx, mv, rows
	req.enq = time.Now()
	select {
	case b.reqs <- req:
		b.inflight.Add(1)
	case <-b.stop:
		recycleWave(req)
		return nil, WaveTiming{}, ErrBatcherClosed
	case <-ctx.Done():
		recycleWave(req)
		return nil, WaveTiming{}, ctx.Err()
	}
	// The request is now shared with the worker side. From here the state
	// CAS arbitrates: the submitter may only recycle after consuming the
	// response (the channel is then provably empty) or after winning the
	// pending→abandoned transition (no worker will ever send).
	select {
	case resp := <-req.out:
		recycleWave(req)
		return resp.results, resp.timing, resp.err
	case <-ctx.Done():
		if req.state.CompareAndSwap(wavePending, waveAbandoned) {
			// No worker had committed to answering: the one that picks
			// this wave up will see the abandonment and recycle it.
			return nil, WaveTiming{}, ctx.Err()
		}
		// Lost the race — a worker is mid-send on the buffered channel.
		// Consume the response so the request can be recycled here.
		resp := <-req.out
		putResults(resp.results)
		recycleWave(req)
		return nil, WaveTiming{}, ctx.Err()
	case <-b.done:
		// Prefer a response that was delivered just before shutdown.
		select {
		case resp := <-req.out:
			recycleWave(req)
			return resp.results, resp.timing, resp.err
		default:
		}
		if req.state.CompareAndSwap(wavePending, waveAbandoned) {
			return nil, WaveTiming{}, ErrBatcherClosed
		}
		resp := <-req.out
		recycleWave(req)
		return resp.results, resp.timing, resp.err
	}
}

// deliver answers one wave, resolving the race against submitter
// abandonment: winning the pending→answering CAS guarantees the submitter
// is still waiting (or will consume the buffered response), so the send
// cannot block or hit a recycled channel; losing it means the submitter is
// gone and this side recycles the request and its pooled results.
func (b *Batcher) deliver(wave *waveReq, resp waveResp) {
	if wave.state.CompareAndSwap(wavePending, waveAnswering) {
		wave.out <- resp
	} else {
		putResults(resp.results)
		recycleWave(wave)
	}
	b.inflight.Add(-1)
}

// workerState is one worker's reusable flush machinery: the collected
// waves, the per-version grouping, the gathered row headers, and the
// straggler timer all keep their backing storage across iterations, so a
// steady-state flush allocates nothing beyond what escapes to submitters.
type workerState struct {
	waves  []*waveReq
	groups []evalGroup
	rows   [][]float64
	timer  batchTimer
}

// evalGroup is one model version's slice of a micro-batch: indices into
// workerState.waves.
type evalGroup struct {
	mv    *ModelVersion
	waves []int
}

// worker collects and evaluates micro-batches until the batcher stops.
// Collection is pressure-driven: drain whatever is queued (up to maxBatch
// rows) and flush the moment the queue empties. Only a lone single-row
// wave arms the straggler timer — any multi-row wave is already worth
// evaluating, and waiting on a clock would just tax its latency.
func (b *Batcher) worker() {
	w := &workerState{timer: b.newTimer()}
	for {
		select {
		case <-b.stop:
			return
		case first := <-b.reqs:
			first.pick = time.Now()
			w.waves = append(w.waves[:0], first)
			total := len(first.rows)
		drain:
			for total < b.maxBatch {
				select {
				case req := <-b.reqs:
					req.pick = time.Now()
					w.waves = append(w.waves, req)
					total += len(req.rows)
				default:
					if total > 1 {
						break drain
					}
					// A lone single row: give a partner maxDelay to show.
					w.timer.Reset(b.maxDelay)
					select {
					case req := <-b.reqs:
						if !w.timer.Stop() {
							<-w.timer.C()
						}
						req.pick = time.Now()
						w.waves = append(w.waves, req)
						total += len(req.rows)
					case <-w.timer.C():
						break drain
					case <-b.stop:
						if !w.timer.Stop() {
							<-w.timer.C()
						}
						break drain
					}
				}
			}
			b.flush(w)
		}
	}
}

// flush groups a micro-batch by model version, evaluates each group, and
// answers every submitter. Waves whose context already ended are answered
// with the context error *before* evaluation — their submitters are gone,
// so model work on their rows would be pure waste — and dropped from the
// batch. Each surviving wave's response slice is pooled; the worker's own
// buffers (and the pooled evaluation scratch) are reused across iterations.
func (b *Batcher) flush(w *workerState) {
	totalRows := 0
	for i, wave := range w.waves {
		if err := wave.ctx.Err(); err != nil {
			if b.metrics != nil {
				b.metrics.DeadlineDropped.Add(1)
			}
			b.deliver(wave, waveResp{
				timing: WaveTiming{QueueNs: wave.pick.Sub(wave.enq).Nanoseconds()},
				err:    err,
			})
			w.waves[i] = nil
			continue
		}
		totalRows += len(wave.rows)
	}
	if totalRows == 0 {
		clearWaves(w, 0)
		return
	}
	if b.metrics != nil {
		b.metrics.Batches.Add(1)
		b.metrics.BatchedRows.Add(uint64(totalRows))
	}
	// Group by bundle pointer with a linear scan: micro-batches hold very
	// few distinct versions (usually one), so this beats a per-flush map.
	groups := w.groups[:0]
nextWave:
	for i, wave := range w.waves {
		if wave == nil {
			continue
		}
		for gi := range groups {
			if groups[gi].mv == wave.mv {
				groups[gi].waves = append(groups[gi].waves, i)
				continue nextWave
			}
		}
		if len(groups) < cap(groups) {
			groups = groups[:len(groups)+1]
			g := &groups[len(groups)-1]
			g.mv = wave.mv
			g.waves = append(g.waves[:0], i)
		} else {
			groups = append(groups, evalGroup{mv: wave.mv, waves: []int{i}})
		}
	}
	w.groups = groups

	s := evalScratchPool.Get().(*evalScratch)
	flushStart := time.Now()
	maxRows := 0
	for gi := range groups {
		g := &groups[gi]
		rows := w.rows[:0]
		for _, wi := range g.waves {
			rows = append(rows, w.waves[wi].rows...)
		}
		w.rows = rows
		if len(rows) > maxRows {
			maxRows = len(rows)
		}
		evalStart := time.Now()
		results, err := b.evaluateGroup(g.mv, rows, s)
		evalNs := time.Since(evalStart).Nanoseconds()
		// Timing is per-wave: queue wait and assembly are the wave's own
		// stamps; the evaluation split is shared by every wave the group
		// coalesced (the whole point of batching is that they share it).
		shared := WaveTiming{EvalNs: evalNs, GuardNs: s.guardNs}
		if err != nil {
			if b.metrics != nil {
				b.metrics.Errors.Add(1)
			}
			for _, wi := range g.waves {
				wave := w.waves[wi]
				timing := shared
				timing.QueueNs = wave.pick.Sub(wave.enq).Nanoseconds()
				timing.AssembleNs = flushStart.Sub(wave.pick).Nanoseconds()
				b.deliver(wave, waveResp{timing: timing, err: err})
			}
		} else {
			off := 0
			for _, wi := range g.waves {
				wave := w.waves[wi]
				n := len(wave.rows)
				rs := getResults(n)
				copy(rs, results[off:off+n])
				off += n
				timing := shared
				timing.QueueNs = wave.pick.Sub(wave.enq).Nanoseconds()
				timing.AssembleNs = flushStart.Sub(wave.pick).Nanoseconds()
				b.deliver(wave, waveResp{results: rs, timing: timing})
			}
		}
		// Drop the bundle reference (a retired version must not be pinned
		// by idle workers) but keep the index array for the next flush.
		g.mv = nil
	}
	s.release()
	clearWaves(w, maxRows)
}

// clearWaves clears the worker's wave and row pointers so an idle worker
// pins no request data. For w.rows the prefix written this flush (its
// largest group) is enough: everything beyond it is still nil from the
// previous flush's clear, so the cost stays proportional to this flush,
// not to the largest flush the worker ever handled.
func clearWaves(w *workerState, maxRows int) {
	for i := range w.waves {
		w.waves[i] = nil
	}
	rows := w.rows[:maxRows]
	for i := range rows {
		rows[i] = nil
	}
	w.rows = rows[:0]
}

// evaluateGroup runs one group evaluation with panic isolation and the
// chaos hooks: a panic anywhere in model evaluation (or injected by the
// chaos harness) is recovered, counted, and converted into a group error —
// the wave fails, the worker and the process survive. The chaos hooks run
// inside the recovered region so injected panics exercise exactly the
// production containment path.
func (b *Batcher) evaluateGroup(mv *ModelVersion, rows [][]float64, s *evalScratch) (results []Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if b.metrics != nil {
				b.metrics.PanicsRecovered.Add(1)
			}
			s.guardNs = 0
			results, err = nil, fmt.Errorf("%w: %s v%d: %v", ErrEvalPanic, mv.System, mv.Version, r)
		}
	}()
	if b.chaos != nil {
		b.chaos.EvalDelay()
		b.chaos.EvalPanic()
		if cerr := b.chaos.EvalError(); cerr != nil {
			s.guardNs = 0
			return nil, cerr
		}
	}
	return evaluateInto(mv, rows, s)
}

// evalScratch holds the reusable buffers of one group evaluation: the
// prediction vector, the scaled feature block the guardrail ensemble reads
// (one flat backing array), the ensemble scratch, and the result slice
// whose values are copied out to submitters. Pooled via evalScratchPool so
// concurrent workers and the shadow mirror share warm buffers without
// contention.
type evalScratch struct {
	predLogs  []float64
	scaledBuf []float64
	scaled    [][]float64
	preds     []uq.Prediction
	results   []Result
	// used is the result prefix written since the last release, so
	// release's guard-pointer clear costs the last batch, not the largest
	// batch this scratch ever held.
	used int
	// guardNs is the guardrail slice of the last evaluateInto call's wall
	// time (0 for unguarded bundles), read by flush for stage attribution.
	guardNs int64
	uq      uq.BatchScratch
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// release returns the scratch to the pool, first dropping the escaping
// references its result buffer still holds (guard pointers into the last
// batch's guard block) so an idle pooled scratch pins nothing beyond its
// own arrays. Only the written prefix needs clearing — the tail is still
// nil from the previous release.
func (s *evalScratch) release() {
	for i := 0; i < s.used; i++ {
		s.results[i].Guard = nil
	}
	s.used = 0
	evalScratchPool.Put(s)
}

// evaluate runs one model version over a group of rows with internally
// pooled scratch, returning results safe to retain. The shadow mirror's
// entry point; the batcher's hot path uses evaluateInto directly.
func evaluate(mv *ModelVersion, rows [][]float64) ([]Result, error) {
	s := evalScratchPool.Get().(*evalScratch)
	defer s.release()
	results, err := evaluateInto(mv, rows, s)
	if err != nil {
		return nil, err
	}
	return append([]Result(nil), results...), nil
}

// evaluateInto runs one model version over a group of rows: the GBT point
// prediction on the bundle's compiled flat engine plus, when the bundle is
// guarded, the deep ensemble's decomposed uncertainty (members evaluated in
// parallel) and its taxonomy diagnosis. A guarded bundle that cannot
// produce its guard (scaler mismatch) fails the whole group rather than
// silently serving unguarded predictions.
//
// The returned slice is owned by s and valid until its next use; callers
// must copy the Result values out before reusing s. Guard annotations are
// allocated fresh — they outlive the call via Result pointers and the
// duplicate cache.
func evaluateInto(mv *ModelVersion, rows [][]float64, s *evalScratch) ([]Result, error) {
	n := len(rows)
	if cap(s.predLogs) < n {
		s.predLogs = make([]float64, n)
	}
	predLogs := s.predLogs[:n]
	mv.Flat().PredictAllInto(rows, predLogs)
	s.guardNs = 0
	var guards []Guard
	if mv.Ensemble != nil {
		guardStart := time.Now()
		nf := len(mv.Columns)
		if cap(s.scaledBuf) < n*nf {
			s.scaledBuf = make([]float64, n*nf)
		}
		if cap(s.scaled) < n {
			s.scaled = make([][]float64, n)
		}
		scaled := s.scaled[:n]
		for i, row := range rows {
			dst := s.scaledBuf[i*nf : (i+1)*nf]
			if err := mv.Scaler.TransformRow(row, dst); err != nil {
				return nil, fmt.Errorf("serve: model %s v%d: guardrail scaling failed: %w", mv.System, mv.Version, err)
			}
			scaled[i] = dst
		}
		if cap(s.preds) < n {
			s.preds = make([]uq.Prediction, n)
		}
		preds := s.preds[:n]
		mv.Ensemble.PredictBatchInto(scaled, preds, &s.uq)
		guards = make([]Guard, n)
		for i := range preds {
			guards[i] = mv.Guard.Diagnose(preds[i])
		}
		s.guardNs = time.Since(guardStart).Nanoseconds()
	}
	if cap(s.results) < n {
		s.results = make([]Result, n)
	}
	results := s.results[:n]
	if n > s.used {
		s.used = n
	}
	for i := range rows {
		results[i] = Result{
			PredLog: predLogs[i],
			Pred:    math.Pow(10, predLogs[i]),
		}
		if guards != nil {
			results[i].Guard = &guards[i]
		} else {
			results[i].Guard = nil
		}
	}
	return results, nil
}
