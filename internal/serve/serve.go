// Package serve is the online prediction-serving subsystem: it turns the
// repo's offline taxonomy machinery into an HTTP service that predicts I/O
// throughput per job and ships each prediction with its error-source
// diagnosis.
//
// The pipeline per request:
//
//	registry  — versioned, per-system bundles of GBT model + deep
//	            ensemble + scaler + guardrail calibration, loaded from a
//	            directory of validated JSON artifacts (registry.go)
//	cache     — a sharded LRU keyed on the feature-vector hash; the
//	            paper's duplicate-dominance finding (Sec. VI: ~24% of jobs
//	            are exact duplicates) makes this the cheapest prediction
//	            path (cache.go)
//	batcher   — misses are coalesced into micro-batches (one wave per
//	            request, adaptive pressure-driven flushing) and evaluated
//	            on the bundle's compiled flat GBT engine with ensemble
//	            members in parallel, all on pooled buffers (batcher.go)
//	guard     — every evaluated prediction is annotated with the taxonomy
//	            guardrail: epistemic OoD flag and noise-floor diagnosis
//	            (guard.go)
//	reload    — the registry root is watched by polling; new or rewritten
//	            version directories are loaded, swapped in atomically, and
//	            the bumped system's cache entries invalidated (reload.go)
//	shadow    — a deterministic slice of active-version traffic is
//	            mirrored to the adjacent versions, accumulating online
//	            error deltas for promote/rollback decisions (shadow.go)
//
// server.go exposes the service over HTTP (POST /v1/predict, GET
// /v1/models, GET /v1/versions plus its promote/rollback/reload admin
// actions, /healthz, /metrics); loadgen.go generates Poisson traffic with
// duplicate- and OoD-rate knobs; bootstrap.go trains and exports demo
// registries so `ioserve -bootstrap` starts from nothing.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience/chaos"
)

// Options tune the serving pipeline.
type Options struct {
	// MaxBatch bounds cross-request coalescing: a worker stops collecting
	// further waves once its batch holds at least this many rows (default
	// 32). A single request's wave is never split, so one request larger
	// than MaxBatch is still evaluated whole (the evaluation kernels
	// chunk internally), and the last wave collected may overshoot the
	// bound by its own size. Batching is adaptive — workers flush the
	// moment the queue empties — so this only matters under sustained
	// pressure.
	MaxBatch int
	// MaxDelay is the straggler window a lone single-row submission may
	// wait for company (default 2ms). Multi-row requests never wait: they
	// arrive as a wave that is already worth evaluating.
	MaxDelay time.Duration
	// Workers is the micro-batch worker-pool size (default 2).
	Workers int
	// CacheSize is the duplicate cache capacity in entries; <= 0
	// disables caching.
	CacheSize int
	// ShadowFraction mirrors this deterministic slice of active-version
	// rows to the adjacent registry versions for online comparison
	// (shadow.go); <= 0 disables mirroring.
	ShadowFraction float64
	// ShadowWorkers / ShadowQueue size the mirror worker pool and its
	// queue (defaults 1 and 256).
	ShadowWorkers int
	ShadowQueue   int
	// TraceEvery enables request tracing: 1-in-N head sampling into the
	// retained-trace ring on top of the always-keep tail policy (errors,
	// OoD-flagged requests, slower-than-moving-p99 requests). <= 0 disables
	// tracing entirely — the predict path then records stage timings into
	// the /metrics histograms but never touches a Trace.
	TraceEvery int
	// TraceBuffer is the retained-trace ring capacity (default 256).
	TraceBuffer int
	// TraceSlowAfter pins the slow-trace keep threshold instead of the
	// moving p99 estimate (mainly tests; 0 keeps the adaptive threshold).
	TraceSlowAfter time.Duration
	// Chaos wires the fault-injection harness into wave evaluation
	// (internal/resilience/chaos, the ioserve -chaos flag). Nil — the
	// production default — injects nothing.
	Chaos *chaos.Injector
	// Logger receives the service's structured logs (reload decisions,
	// 5xx failures). Nil discards.
	Logger *slog.Logger
}

// PredictionResult is one served prediction.
type PredictionResult struct {
	// Log10Throughput is the model output (the space models regress in).
	Log10Throughput float64 `json:"log10_throughput"`
	// Throughput is the same prediction in bytes/s.
	Throughput float64 `json:"throughput_bytes_per_sec"`
	// Guard is the taxonomy guardrail annotation; absent when the bundle
	// has no ensemble.
	Guard *Guard `json:"guard,omitempty"`
	// CacheHit reports whether the duplicate cache answered this row.
	CacheHit bool `json:"cache_hit"`
}

// Observer receives every successfully served request. It is called
// synchronously on the predict path after the response is assembled, so
// implementations must be cheap, non-blocking, and panic-free; anything
// expensive belongs on the observer's own queue. The drift detectors
// (internal/drift) use this to watch the live feature distribution.
type Observer interface {
	ObserveServed(mv *ModelVersion, rows [][]float64, results []PredictionResult)
}

// observerBox wraps the interface so it can live in an atomic.Pointer.
type observerBox struct{ obs Observer }

// Service ties registry, cache, batcher, shadow, and metrics into the
// predict path.
type Service struct {
	reg     *Registry
	cache   *Cache
	batcher *Batcher
	shadow  *Shadow
	metrics *Metrics
	// tracer owns request traces; nil when Options.TraceEvery <= 0, and a
	// nil tracer no-ops, so the predict path threads it unconditionally.
	tracer *obs.Tracer
	// logger receives structured service logs (never nil; defaults to a
	// discard logger).
	logger *slog.Logger
	// reloader is attached by NewReloader (nil when reloading is off).
	reloader atomic.Pointer[Reloader]
	// observer is attached by SetObserver (nil when nothing watches).
	observer atomic.Pointer[observerBox]
}

// NewService wires a service over a loaded registry.
func NewService(reg *Registry, opt Options) *Service {
	m := &Metrics{}
	s := &Service{
		reg:     reg,
		cache:   NewCache(opt.CacheSize),
		batcher: newBatcher(opt.MaxBatch, opt.MaxDelay, opt.Workers, m, opt.Chaos),
		shadow:  NewShadow(reg, opt.ShadowFraction, opt.ShadowWorkers, opt.ShadowQueue, m),
		metrics: m,
		logger:  opt.Logger,
	}
	if s.logger == nil {
		s.logger = obs.NopLogger()
	}
	m.QueueDepthFn = s.batcher.QueueDepth
	m.InflightWavesFn = s.batcher.InflightWaves
	m.RegisterCollector(s.versionFamilies)
	if opt.TraceEvery > 0 {
		s.tracer = obs.NewTracer(obs.Config{
			SampleEvery: opt.TraceEvery,
			RingSize:    opt.TraceBuffer,
			SlowAfter:   opt.TraceSlowAfter,
		})
		m.RegisterCollector(s.tracer.Families)
	}
	return s
}

// versionFamilies renders each system's serving-default version as a
// gauge, so one metrics scrape carries the topology a fleet router needs —
// publish propagation is observable without a second admin request.
func (s *Service) versionFamilies() []obs.PromFamily {
	f := obs.PromFamily{Name: "ioserve_active_version", Help: "The serving-default model version per system.", Type: "gauge"}
	for _, info := range s.reg.List() {
		if info.Active {
			f.Samples = append(f.Samples, obs.PromSample{Name: f.Name, Labels: obs.PromLabels("system", info.System), Value: float64(info.Version)})
		}
	}
	return []obs.PromFamily{f}
}

// Close stops the reloader (if attached), the shadow mirror, and the
// worker pool.
func (s *Service) Close() {
	s.reloader.Load().Close()
	s.shadow.Close()
	s.batcher.Close()
}

// Registry exposes the model registry (for listings).
func (s *Service) Registry() *Registry { return s.reg }

// Metrics exposes the service counters.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Tracer returns the request tracer, or nil when tracing is disabled.
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Logger returns the service's structured logger (never nil).
func (s *Service) Logger() *slog.Logger { return s.logger }

// Reloader returns the attached registry reloader, or nil.
func (s *Service) Reloader() *Reloader { return s.reloader.Load() }

func (s *Service) attachReloader(r *Reloader) { s.reloader.Store(r) }

// SetObserver attaches (or, with nil, detaches) the served-traffic
// observer. Safe to call while traffic is flowing.
func (s *Service) SetObserver(o Observer) {
	if o == nil {
		s.observer.Store(nil)
		return
	}
	s.observer.Store(&observerBox{obs: o})
}

// Predict serves a batch of rows against one model version (version <= 0
// selects the serving default: the promoted version, or the highest
// registered one), returning the results and the bundle that produced
// them.
// Rows must match the bundle's feature schema. Rows that hit the duplicate
// cache are answered immediately; the rest go through the micro-batcher in
// one wave, so a multi-row request coalesces naturally.
func (s *Service) Predict(ctx context.Context, system string, version int, rows [][]float64) ([]PredictionResult, *ModelVersion, error) {
	results, mv, _, _, err := s.PredictTraced(ctx, system, version, rows)
	return results, mv, err
}

// PredictTraced is Predict plus observability: it returns the request's
// per-stage latency attribution and, when tracing is on and tail-sampling
// retained the request, the trace ID (0 otherwise). The HTTP layer uses it
// to ship server-side timings and X-Trace-Id back to callers; embedders
// that don't care call Predict.
func (s *Service) PredictTraced(ctx context.Context, system string, version int, rows [][]float64) ([]PredictionResult, *ModelVersion, obs.StageTimings, uint64, error) {
	start := time.Now()
	s.metrics.Requests.Add(1)
	// tm lives on this frame: stage attribution costs no allocation, and
	// the pooled Trace (if any) is only filled from it at the very end.
	var tm obs.StageTimings
	tm.Rows = len(rows)
	// Per-system series are created inside predict, only after the
	// registry resolves the system — a flood of bogus system names must
	// not grow the metrics map (and /metrics cardinality) without bound;
	// such failures count only toward the unlabeled totals.
	results, mv, err := s.predict(ctx, system, version, rows, false, &tm)
	tm.TotalNs = time.Since(start).Nanoseconds()
	if err != nil {
		s.metrics.Errors.Add(1)
		if mv != nil {
			s.metrics.System(mv.System).Errors.Add(1)
		}
		id := s.finishTrace(ctx, system, mv, start, &tm, err)
		return nil, nil, tm, id, err
	}
	s.metrics.LatencyNs.Add(uint64(tm.TotalNs))
	s.metrics.Latency.Observe(time.Duration(tm.TotalNs))
	s.metrics.ObserveStages(&tm)
	id := s.finishTrace(ctx, system, mv, start, &tm, nil)
	return results, mv, tm, id, nil
}

// finishTrace runs the request through tail-sampling: no-op (returns 0)
// when tracing is off, otherwise fills a pooled Trace from tm and lets the
// tracer decide retention. An upstream trace ID on ctx (a router hop) is
// recorded as the retained trace's parent.
func (s *Service) finishTrace(ctx context.Context, system string, mv *ModelVersion, start time.Time, tm *obs.StageTimings, err error) uint64 {
	if s.tracer == nil {
		return 0
	}
	sys, ver := system, 0
	if mv != nil {
		sys, ver = mv.System, mv.Version
	}
	t := s.tracer.Start(sys, ver, start)
	t.Parent = obs.TraceParent(ctx)
	t.Timings = *tm
	if err != nil {
		t.Err = err.Error()
		// Deadline-expired requests get their own keep reason and stay out
		// of the moving-p99 feed: their latency measures the deadline, not
		// the pipeline.
		t.Deadline = errors.Is(err, context.DeadlineExceeded)
	}
	return s.tracer.Finish(t)
}

// TraceShed records an admission-shed request in the trace ring (keep
// reason "shed") and returns its trace ID; 0 when tracing is off. Shed
// requests never enter the predict path, so the HTTP layer calls this
// directly from the admission rejection.
func (s *Service) TraceShed(system string, reason string) uint64 {
	if s.tracer == nil {
		return 0
	}
	t := s.tracer.Start(system, 0, time.Now())
	t.Shed = true
	t.Err = "shed by admission control: " + reason
	return s.tracer.Finish(t)
}

// PredictQuiet evaluates rows exactly like Predict — same registry
// resolution, duplicate cache, micro-batcher, and guardrails — but
// records nothing: no serving metrics, no shadow mirroring, no observer
// notification. Control-plane evaluations (e.g. internal/drift scoring
// ground-truth feedback against model versions) use it so backfilled
// feedback never reads as live traffic or double-counts served rows.
func (s *Service) PredictQuiet(ctx context.Context, system string, version int, rows [][]float64) ([]PredictionResult, *ModelVersion, error) {
	var tm obs.StageTimings // measured then discarded: quiet calls stay invisible
	return s.predict(ctx, system, version, rows, true, &tm)
}

// predict is the shared serving path. tm (never nil) accumulates the
// request's stage attribution as it flows through cache, batcher, and
// finalization; the caller decides whether those timings reach /metrics or
// a retained trace.
func (s *Service) predict(ctx context.Context, system string, version int, rows [][]float64, quiet bool, tm *obs.StageTimings) ([]PredictionResult, *ModelVersion, error) {
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("serve: empty request")
	}
	// The bundle is resolved exactly once per request; every row, cache
	// key, and the reported version below use this pointer, so a reload
	// swapping versions mid-request can never produce a torn read — the
	// whole request is served by one consistent bundle.
	mv, err := s.reg.Get(system, version)
	if err != nil {
		return nil, nil, err
	}
	if !quiet {
		s.metrics.System(mv.System).Requests.Add(1)
	}
	for i, row := range rows {
		if len(row) != len(mv.Columns) {
			return nil, mv, fmt.Errorf("serve: row %d has %d features, model %s v%d expects %d",
				i, len(row), mv.System, mv.Version, len(mv.Columns))
		}
	}

	results := make([]PredictionResult, len(rows))
	// guardBuf backs every result's Guard annotation for this request: one
	// amortized allocation instead of one copy per row, keeping the fully-
	// cached request path at two heap allocations (results + guardBuf).
	// Copying out of the cached Result is still what keeps cache entries
	// immutable under response consumers.
	var guardBuf []Guard
	setResult := func(i int, res Result, cacheHit bool) {
		pr := PredictionResult{
			Log10Throughput: res.PredLog,
			Throughput:      res.Pred,
			CacheHit:        cacheHit,
		}
		if res.Guard != nil {
			if guardBuf == nil {
				guardBuf = make([]Guard, len(rows))
			}
			guardBuf[i] = *res.Guard
			pr.Guard = &guardBuf[i]
		}
		results[i] = pr
	}
	type miss struct {
		i   int
		key uint64
		// dependents are later rows in this request with the same
		// feature vector; they ride on this evaluation as cache hits.
		dependents []int
	}
	// All of a request's misses travel to the worker pool as one wave, so
	// a multi-row request is picked up by one worker in one queue
	// operation and never splits across micro-batches.
	var misses []miss
	var missRows [][]float64
	var hits uint64
	// In-request duplicate lookup: typical requests hold few misses, so a
	// linear scan beats a per-request map — but the HTTP layer admits
	// ~100k-row batches, where a scan would go quadratic; those index
	// their misses by key instead.
	const dupScanCutoff = 64
	var pending map[uint64]int
	if s.cache != nil && len(rows) > dupScanCutoff {
		pending = make(map[uint64]int, len(rows))
	}
	cacheStart := time.Now()
	for i, row := range rows {
		key := HashKey(mv.System, mv.Version, row)
		if res, ok := s.cache.Get(key, row, mv); ok {
			setResult(i, res, true)
			hits++
			continue
		}
		// Duplicate of a row already in flight in this request: don't
		// evaluate it twice. Only when caching is enabled — with the
		// cache off, every row pays full evaluation so the cache-on/off
		// comparison isolates duplicate-awareness as a whole.
		if s.cache != nil {
			dupIdx := -1
			if pending != nil {
				if mi, ok := pending[key]; ok && rowsEqual(rows[misses[mi].i], row) {
					dupIdx = mi
				}
			} else {
				for mi := range misses {
					if misses[mi].key == key && rowsEqual(rows[misses[mi].i], row) {
						dupIdx = mi
						break
					}
				}
			}
			if dupIdx >= 0 {
				misses[dupIdx].dependents = append(misses[dupIdx].dependents, i)
				hits++
				continue
			}
		}
		if misses == nil {
			misses = make([]miss, 0, len(rows)-i)
			missRows = make([][]float64, 0, len(rows)-i)
		}
		misses = append(misses, miss{i: i, key: key})
		missRows = append(missRows, row)
		if pending != nil {
			pending[key] = len(misses) - 1
		}
	}
	tm.Add(obs.StageCacheLookup, time.Since(cacheStart).Nanoseconds())
	tm.CacheHits = int(hits)
	tm.CacheMisses = len(misses)
	if len(misses) > 0 {
		wave, wt, err := s.batcher.SubmitWave(ctx, mv, missRows)
		if err != nil {
			return nil, mv, err
		}
		tm.Add(obs.StageQueueWait, wt.QueueNs)
		tm.Add(obs.StageWaveAssemble, wt.AssembleNs)
		tm.Add(obs.StageEvaluate, wt.EvalNs)
		tm.Add(obs.StageGuard, wt.GuardNs)
		finalizeStart := time.Now()
		for k := range misses {
			ms := &misses[k]
			res := wave[k]
			s.cache.Put(ms.key, rows[ms.i], mv, res)
			setResult(ms.i, res, false)
			for _, di := range ms.dependents {
				setResult(di, res, true)
			}
		}
		putResults(wave)
		tm.Add(obs.StageFinalize, time.Since(finalizeStart).Nanoseconds())
	}

	var ood uint64
	for _, r := range results {
		if r.Guard != nil && r.Guard.OoD {
			ood++
		}
	}
	tm.OoDFlagged = int(ood)
	if quiet {
		return results, mv, nil
	}
	s.metrics.Predictions.Add(uint64(len(rows)))
	s.metrics.CacheHits.Add(hits)
	s.metrics.CacheMisses.Add(uint64(len(misses)))
	sys := s.metrics.System(mv.System)
	sys.Predictions.Add(uint64(len(rows)))
	sys.CacheHits.Add(hits)
	sys.CacheMisses.Add(uint64(len(misses)))
	s.metrics.OoDFlagged.Add(ood)
	sys.OoDFlagged.Add(ood)
	observeStart := time.Now()
	s.shadow.Mirror(mv, rows, results)
	if box := s.observer.Load(); box != nil {
		box.obs.ObserveServed(mv, rows, results)
	}
	tm.Add(obs.StageObserve, time.Since(observeStart).Nanoseconds())
	return results, mv, nil
}
