package serve

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iotaxo/internal/obs"
)

// MetricsContentType is the exposition Content-Type served at GET
// /metrics. Defined once so every handler (serve, tests, embedders
// mounting their own mux) advertises the same format.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// Metrics are the service's counters, exposed at GET /metrics in the
// Prometheus text exposition format. All fields are cumulative; rates and
// ratios are left to the scraper except the two derived gauges (mean batch
// size, cache hit ratio) that the acceptance benchmarks read directly.
//
// Counters exist at two granularities: the unlabeled totals below, and
// per-system series (System) rendered with a {system="..."} label, so a
// mixed-traffic deployment can tell which model family is hot, missing its
// cache, or flagging OoD jobs. Request latency is additionally recorded in
// a fixed-bucket histogram (ioserve_request_latency_seconds).
type Metrics struct {
	// Requests counts calls to the predict path (HTTP or in-process).
	Requests atomic.Uint64
	// Predictions counts individual rows predicted (cache hits included).
	Predictions atomic.Uint64
	// CacheHits / CacheMisses split Predictions by cache outcome. Misses
	// equals rows that went through a model evaluation.
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64
	// OoDFlagged counts rows whose guardrail raised the ood flag.
	OoDFlagged atomic.Uint64
	// Batches / BatchedRows describe micro-batching efficacy: BatchedRows
	// over Batches is the mean evaluated batch size.
	Batches     atomic.Uint64
	BatchedRows atomic.Uint64
	// Errors counts failed predict calls.
	Errors atomic.Uint64
	// DeadlineDropped counts waves answered with their context error and
	// dropped from a micro-batch before evaluation (the deadline expired
	// while the wave was queued — no model work was spent on it).
	DeadlineDropped atomic.Uint64
	// PanicsRecovered counts panics recovered inside wave-group evaluation
	// (the wave failed; the worker and process survived).
	PanicsRecovered atomic.Uint64
	// LatencyNs accumulates predict-path wall time in nanoseconds.
	LatencyNs atomic.Uint64

	// ReloadPolls / ReloadApplied / ReloadErrors describe the registry
	// reloader: polls of the registry root, polls that changed the live
	// version set, and poll or load failures.
	ReloadPolls   atomic.Uint64
	ReloadApplied atomic.Uint64
	ReloadErrors  atomic.Uint64
	// VersionSwaps counts bundles added, replaced, or retired by reloads.
	VersionSwaps atomic.Uint64
	// CacheInvalidated counts cache entries dropped on version bumps.
	CacheInvalidated atomic.Uint64

	// Latency is the predict-call latency histogram.
	Latency obs.LatencyHist
	// stages are the per-stage latency histograms (one labeled family,
	// ioserve_stage_latency_seconds{stage=...}), fed by ObserveStages so a
	// p99 regression can be split into queue wait vs wave assembly vs
	// evaluate vs guard work.
	stages [obs.NumStages]obs.LatencyHist
	// QueueDepthFn / InflightWavesFn report the batcher's instantaneous
	// queue depth and unanswered-wave count at scrape time (wired by
	// NewService; nil leaves the gauges out of the exposition).
	QueueDepthFn    func() int
	InflightWavesFn func() int
	// perSystem maps system name -> *SystemMetrics.
	perSystem sync.Map
	// shadowStats maps ShadowKey -> *ShadowStat.
	shadowStats sync.Map

	// collectorMu guards collectors: extra metric families contributed by
	// subsystems outside serve (e.g. internal/drift), appended to the
	// /metrics output after the built-in series.
	collectorMu sync.Mutex
	collectors  []func() []obs.PromFamily
}

// RegisterCollector appends an extra source of metric families to the
// /metrics output and returns a function that unregisters it. Collectors
// run after the built-in series, in registration order, and must use their
// own metric names. Subsystems with a lifecycle (e.g. internal/drift) must
// unregister on close, or a replacement would duplicate metric families.
func (m *Metrics) RegisterCollector(c func() []obs.PromFamily) (unregister func()) {
	m.collectorMu.Lock()
	m.collectors = append(m.collectors, c)
	idx := len(m.collectors) - 1
	m.collectorMu.Unlock()
	return func() {
		m.collectorMu.Lock()
		if idx < len(m.collectors) {
			m.collectors[idx] = nil
		}
		m.collectorMu.Unlock()
	}
}

// SystemMetrics are the per-system counter labels.
type SystemMetrics struct {
	Requests    atomic.Uint64
	Predictions atomic.Uint64
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64
	OoDFlagged  atomic.Uint64
	Errors      atomic.Uint64
}

// System returns (creating on first use) the counters labeled with the
// given system name.
func (m *Metrics) System(name string) *SystemMetrics {
	if v, ok := m.perSystem.Load(name); ok {
		return v.(*SystemMetrics)
	}
	v, _ := m.perSystem.LoadOrStore(name, &SystemMetrics{})
	return v.(*SystemMetrics)
}

// Systems returns the known system labels, sorted.
func (m *Metrics) Systems() []string {
	var names []string
	m.perSystem.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// ShadowKey labels one online version comparison: traffic served by
// Primary, mirrored to Target in the given Role ("shadow" for v(N-1),
// "canary" for a staged newer version).
type ShadowKey struct {
	System  string
	Primary int
	Target  int
	Role    string
}

// ShadowStat accumulates the online deltas between a primary version and a
// mirror target. Updates come from the shadow workers (off the predict
// latency path), so a mutex over plain fields is fine here.
type ShadowStat struct {
	mu          sync.Mutex
	mirrored    uint64
	dropped     uint64
	errors      uint64
	absDeltaLog float64 // sum |Δ log10 throughput| across mirrored rows
	absDelta    float64 // sum |Δ throughput| (bytes/s)
	oodAgree    uint64  // rows where both versions' OoD flags match
	oodTarget   uint64  // rows the target flagged OoD
	latencyNs   uint64  // target evaluation wall time
}

// observe records one mirrored-row comparison.
func (s *ShadowStat) observe(deltaLog, delta float64, agree, targetOoD bool, latNs uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mirrored++
	s.absDeltaLog += deltaLog
	s.absDelta += delta
	if agree {
		s.oodAgree++
	}
	if targetOoD {
		s.oodTarget++
	}
	s.latencyNs += latNs
}

func (s *ShadowStat) observeDropped() {
	s.mu.Lock()
	s.dropped++
	s.mu.Unlock()
}

func (s *ShadowStat) observeError() {
	s.mu.Lock()
	s.errors++
	s.mu.Unlock()
}

// ShadowSnapshot is the exported view of one comparison's accumulated
// deltas (served at GET /v1/versions and rendered into /metrics).
type ShadowSnapshot struct {
	System  string `json:"system"`
	Primary int    `json:"primary"`
	Target  int    `json:"target"`
	Role    string `json:"role"`
	// Mirrored counts rows evaluated on the target; Dropped rows shed when
	// the mirror queue was full; Errors failed target evaluations.
	Mirrored uint64 `json:"mirrored"`
	Dropped  uint64 `json:"dropped,omitempty"`
	Errors   uint64 `json:"errors,omitempty"`
	// MAELog is the mean |Δ log10 throughput| between the versions; MAE
	// the same delta in bytes/s.
	MAELog float64 `json:"mae_log"`
	MAE    float64 `json:"mae_bytes_per_sec"`
	// OoDAgreement is the fraction of mirrored rows where both versions'
	// OoD flags agreed; OoDTarget the fraction the target flagged.
	OoDAgreement float64 `json:"ood_agreement"`
	OoDTarget    float64 `json:"ood_target_rate"`
	// MeanLatency is the target's mean per-row evaluation time in seconds.
	MeanLatency float64 `json:"mean_latency_seconds"`
}

func (s *ShadowStat) snapshot(k ShadowKey) ShadowSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := ShadowSnapshot{
		System: k.System, Primary: k.Primary, Target: k.Target, Role: k.Role,
		Mirrored: s.mirrored, Dropped: s.dropped, Errors: s.errors,
	}
	if s.mirrored > 0 {
		n := float64(s.mirrored)
		snap.MAELog = s.absDeltaLog / n
		snap.MAE = s.absDelta / n
		snap.OoDAgreement = float64(s.oodAgree) / n
		snap.OoDTarget = float64(s.oodTarget) / n
		snap.MeanLatency = float64(s.latencyNs) / n / 1e9
	}
	return snap
}

// Shadow returns (creating on first use) the delta accumulator for one
// version comparison.
func (m *Metrics) Shadow(k ShadowKey) *ShadowStat {
	if v, ok := m.shadowStats.Load(k); ok {
		return v.(*ShadowStat)
	}
	v, _ := m.shadowStats.LoadOrStore(k, &ShadowStat{})
	return v.(*ShadowStat)
}

// PruneShadow drops a system's comparisons whose primary or target
// version is no longer live, so version churn over a long-running
// deployment cannot grow /metrics cardinality (or the /v1/versions shadow
// array) without bound. Returns the number of comparisons dropped.
func (m *Metrics) PruneShadow(system string, live func(version int) bool) int {
	dropped := 0
	m.shadowStats.Range(func(k, _ any) bool {
		key := k.(ShadowKey)
		if key.System != system {
			return true
		}
		if !live(key.Primary) || !live(key.Target) {
			m.shadowStats.Delete(k)
			dropped++
		}
		return true
	})
	return dropped
}

// ShadowSnapshots exports every comparison, sorted by (system, primary,
// target, role). system filters when non-empty.
func (m *Metrics) ShadowSnapshots(system string) []ShadowSnapshot {
	var out []ShadowSnapshot
	m.shadowStats.Range(func(k, v any) bool {
		key := k.(ShadowKey)
		if system != "" && key.System != system {
			return true
		}
		out = append(out, v.(*ShadowStat).snapshot(key))
		return true
	})
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.System != y.System {
			return x.System < y.System
		}
		if x.Primary != y.Primary {
			return x.Primary < y.Primary
		}
		if x.Target != y.Target {
			return x.Target < y.Target
		}
		return x.Role < y.Role
	})
	return out
}

// StageHist returns the latency histogram of one pipeline stage.
func (m *Metrics) StageHist(st obs.Stage) *obs.LatencyHist { return &m.stages[st] }

// ObserveStages records one request's per-stage split. cache_lookup and
// observe record on every request; the batcher stages record whenever the
// request had cache misses — explicitly including waves whose queue wait
// rounded to zero because a worker drained them immediately, so the
// queue-wait histogram reflects every queued wave, not just the delayed
// ones. guard records only when a guarded bundle actually ran it, and
// decode and encode only for requests served over HTTP.
func (m *Metrics) ObserveStages(tm *obs.StageTimings) {
	for _, st := range [...]obs.Stage{obs.StageDecode, obs.StageEncode} {
		if tm.Ns[st] > 0 {
			m.stages[st].Observe(time.Duration(tm.Ns[st]))
		}
	}
	m.stages[obs.StageCacheLookup].Observe(time.Duration(tm.Ns[obs.StageCacheLookup]))
	m.stages[obs.StageObserve].Observe(time.Duration(tm.Ns[obs.StageObserve]))
	if tm.CacheMisses > 0 {
		for _, st := range [...]obs.Stage{obs.StageQueueWait, obs.StageWaveAssemble, obs.StageEvaluate, obs.StageFinalize} {
			m.stages[st].Observe(time.Duration(tm.Ns[st]))
		}
		if tm.Ns[obs.StageGuard] > 0 {
			m.stages[obs.StageGuard].Observe(time.Duration(tm.Ns[obs.StageGuard]))
		}
	}
}

// MeanBatchSize returns evaluated rows per micro-batch (0 if none ran).
func (m *Metrics) MeanBatchSize() float64 {
	b := m.Batches.Load()
	if b == 0 {
		return 0
	}
	return float64(m.BatchedRows.Load()) / float64(b)
}

// HitRatio returns the cache hit fraction across all predictions.
func (m *Metrics) HitRatio() float64 {
	h, ms := m.CacheHits.Load(), m.CacheMisses.Load()
	if h+ms == 0 {
		return 0
	}
	return float64(h) / float64(h+ms)
}

// WriteText renders Families in the Prometheus text exposition format.
func (m *Metrics) WriteText(w io.Writer) error { return obs.WritePromText(w, m.Families()) }

// Families returns the service's metric families: the unlabeled totals,
// the per-system series (under their own ioserve_system_* names, so
// aggregating either family never double counts — totals also include
// failures that never resolved to a system), the derived gauges, the
// shadow comparisons, the latency histograms, then every registered
// collector's families.
func (m *Metrics) Families() []obs.PromFamily {
	var fams []obs.PromFamily
	scalar := func(name, help, typ string, v float64) {
		fams = append(fams, obs.PromFamily{Name: name, Help: help, Type: typ, Samples: []obs.PromSample{{Name: name, Value: v}}})
	}
	for _, c := range []struct {
		name, help string
		val        *atomic.Uint64
	}{
		{"ioserve_requests_total", "Predict calls served.", &m.Requests},
		{"ioserve_predictions_total", "Rows predicted.", &m.Predictions},
		{"ioserve_cache_hits_total", "Predictions answered from the duplicate cache.", &m.CacheHits},
		{"ioserve_cache_misses_total", "Predictions evaluated by a model.", &m.CacheMisses},
		{"ioserve_ood_flagged_total", "Predictions flagged out-of-distribution.", &m.OoDFlagged},
		{"ioserve_batches_total", "Micro-batches evaluated.", &m.Batches},
		{"ioserve_batched_rows_total", "Rows evaluated through micro-batches.", &m.BatchedRows},
		{"ioserve_errors_total", "Failed predict calls.", &m.Errors},
		{"ioserve_deadline_dropped_waves_total", "Waves dropped from micro-batches before evaluation because their deadline expired.", &m.DeadlineDropped},
		{"ioserve_eval_panics_recovered_total", "Panics recovered inside wave-group evaluation.", &m.PanicsRecovered},
		{"ioserve_latency_ns_total", "Cumulative predict latency in nanoseconds.", &m.LatencyNs},
		{"ioserve_reload_polls_total", "Registry reload polls.", &m.ReloadPolls},
		{"ioserve_reloads_applied_total", "Reload polls that changed the live version set.", &m.ReloadApplied},
		{"ioserve_reload_errors_total", "Failed reload polls or version loads.", &m.ReloadErrors},
		{"ioserve_version_swaps_total", "Model bundles added, replaced, or retired by reloads.", &m.VersionSwaps},
		{"ioserve_cache_invalidated_total", "Cache entries dropped on version bumps.", &m.CacheInvalidated},
	} {
		scalar(c.name, c.help, "counter", float64(c.val.Load()))
	}
	systems := m.Systems()
	for _, c := range []struct {
		name, help string
		pick       func(*SystemMetrics) *atomic.Uint64
	}{
		{"ioserve_system_requests_total", "Predict calls served, by system.",
			func(s *SystemMetrics) *atomic.Uint64 { return &s.Requests }},
		{"ioserve_system_predictions_total", "Rows predicted, by system.",
			func(s *SystemMetrics) *atomic.Uint64 { return &s.Predictions }},
		{"ioserve_system_cache_hits_total", "Cache-answered predictions, by system.",
			func(s *SystemMetrics) *atomic.Uint64 { return &s.CacheHits }},
		{"ioserve_system_cache_misses_total", "Model-evaluated predictions, by system.",
			func(s *SystemMetrics) *atomic.Uint64 { return &s.CacheMisses }},
		{"ioserve_system_ood_flagged_total", "OoD-flagged predictions, by system.",
			func(s *SystemMetrics) *atomic.Uint64 { return &s.OoDFlagged }},
		{"ioserve_system_errors_total", "Failed predict calls, by system.",
			func(s *SystemMetrics) *atomic.Uint64 { return &s.Errors }},
	} {
		f := obs.PromFamily{Name: c.name, Help: c.help, Type: "counter"}
		for _, name := range systems {
			f.Samples = append(f.Samples, obs.PromSample{Name: c.name, Labels: obs.PromLabels("system", name), Value: float64(c.pick(m.System(name)).Load())})
		}
		fams = append(fams, f)
	}
	scalar("ioserve_batch_size_mean", "Mean rows per evaluated micro-batch.", "gauge", m.MeanBatchSize())
	scalar("ioserve_cache_hit_ratio", "Fraction of predictions answered from cache.", "gauge", m.HitRatio())
	if m.QueueDepthFn != nil {
		scalar("ioserve_batch_queue_depth", "Waves waiting in the batcher queue at scrape time.", "gauge", float64(m.QueueDepthFn()))
	}
	if m.InflightWavesFn != nil {
		scalar("ioserve_batch_inflight_waves", "Waves enqueued but not yet answered at scrape time.", "gauge", float64(m.InflightWavesFn()))
	}
	fams = append(fams, m.shadowFamilies()...)
	fams = append(fams, obs.PromFamily{Name: "ioserve_request_latency_seconds", Help: "Predict call latency.", Type: "histogram",
		Samples: m.Latency.Samples("ioserve_request_latency_seconds")})
	// The per-stage histograms share one labeled family, stages in
	// pipeline order (fixed, so scrapes are diffable).
	stages := obs.PromFamily{Name: "ioserve_stage_latency_seconds", Help: "Predict latency attributed to one pipeline stage.", Type: "histogram"}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		stages.Samples = append(stages.Samples, m.stages[st].Samples(stages.Name, "stage", st.String())...)
	}
	fams = append(fams, stages)

	m.collectorMu.Lock()
	extra := append([]func() []obs.PromFamily(nil), m.collectors...)
	m.collectorMu.Unlock()
	for _, c := range extra {
		if c != nil { // nil: unregistered
			fams = append(fams, c()...)
		}
	}
	return fams
}

// shadowFamilies renders the per-comparison shadow series. Counters carry
// {system, primary, target, role} labels; the derived means are gauges so
// dashboards can plot the version delta without scraping two series.
func (m *Metrics) shadowFamilies() []obs.PromFamily {
	snaps := m.ShadowSnapshots("")
	if len(snaps) == 0 {
		return nil
	}
	var fams []obs.PromFamily
	for _, sr := range []struct {
		name, help, kind string
		val              func(ShadowSnapshot) float64
	}{
		{"ioserve_shadow_mirrored_total", "Rows mirrored to a non-serving version.", "counter",
			func(s ShadowSnapshot) float64 { return float64(s.Mirrored) }},
		{"ioserve_shadow_dropped_total", "Mirror rows shed because the shadow queue was full.", "counter",
			func(s ShadowSnapshot) float64 { return float64(s.Dropped) }},
		{"ioserve_shadow_errors_total", "Failed mirror evaluations.", "counter",
			func(s ShadowSnapshot) float64 { return float64(s.Errors) }},
		{"ioserve_shadow_mae_log", "Mean |delta log10 throughput| between primary and target.", "gauge",
			func(s ShadowSnapshot) float64 { return s.MAELog }},
		{"ioserve_shadow_mae_bytes_per_sec", "Mean |delta throughput| between primary and target.", "gauge",
			func(s ShadowSnapshot) float64 { return s.MAE }},
		{"ioserve_shadow_ood_agreement", "Fraction of mirrored rows with matching OoD flags.", "gauge",
			func(s ShadowSnapshot) float64 { return s.OoDAgreement }},
		{"ioserve_shadow_latency_seconds_mean", "Mean target evaluation time per mirrored row.", "gauge",
			func(s ShadowSnapshot) float64 { return s.MeanLatency }},
	} {
		f := obs.PromFamily{Name: sr.name, Help: sr.help, Type: sr.kind}
		for _, s := range snaps {
			labels := obs.PromLabels("system", s.System, "primary", strconv.Itoa(s.Primary), "target", strconv.Itoa(s.Target), "role", s.Role)
			f.Samples = append(f.Samples, obs.PromSample{Name: sr.name, Labels: labels, Value: sr.val(s)})
		}
		fams = append(fams, f)
	}
	return fams
}
