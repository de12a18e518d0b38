package obs

import (
	"context"
	"strconv"
	"time"
)

// Stage identifies one phase of the serving pipeline. The set is closed —
// stage durations live in fixed arrays indexed by Stage, so attribution
// never allocates — and ordered the way a request flows.
type Stage uint8

const (
	// StageDecode is reading and parsing the request body (HTTP only).
	StageDecode Stage = iota
	// StageCacheLookup is the duplicate-cache scan over the request's rows
	// (hits answered, in-request duplicates deduplicated).
	StageCacheLookup
	// StageQueueWait is the time the request's miss wave sat in the
	// batcher queue before a worker picked it up.
	StageQueueWait
	// StageWaveAssemble is the time between worker pickup and batch flush:
	// the wave riding in a forming micro-batch (straggler waits included).
	StageWaveAssemble
	// StageEvaluate is the model evaluation of the wave's group: flat GBT
	// walk plus (for guarded bundles) the ensemble pass.
	StageEvaluate
	// StageGuard is the guardrail slice of StageEvaluate: scaling, the
	// deep-ensemble uncertainty pass, and the taxonomy diagnosis. Rendered
	// as a child span of evaluate.
	StageGuard
	// StageFinalize is post-evaluation bookkeeping: cache fills and
	// response assembly for the evaluated rows.
	StageFinalize
	// StageObserve is the synchronous post-response work: shadow-mirror
	// enqueue and the drift observer callback.
	StageObserve
	// StageEncode is writing the response body (HTTP only). It runs after
	// the response's own server_timings were fixed, so it reaches the stage
	// histogram and the trace but not TotalNs.
	StageEncode

	// NumStages bounds the Stage values (array sizes, iteration).
	NumStages
)

var stageNames = [NumStages]string{
	"decode", "cache_lookup", "queue_wait", "wave_assemble", "evaluate",
	"guard", "finalize", "observe", "encode",
}

// String returns the stage's exposition label (the {stage="..."} value).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageTimings is one request's latency attribution, accumulated as a
// plain value on the caller's stack so recording costs no allocation.
// Both the /metrics stage histograms and (when tracing is on) the
// retained Trace are populated from it.
type StageTimings struct {
	// TotalNs is the end-to-end predict-call wall time.
	TotalNs int64
	// Ns holds the per-stage durations, indexed by Stage. StageGuard is a
	// subset of StageEvaluate, so the stages do not sum to TotalNs exactly;
	// everything unattributed is scheduling and bookkeeping slack.
	Ns [NumStages]int64
	// Rows / CacheHits / CacheMisses / OoDFlagged describe the request's
	// row-level outcome (misses = rows that went through evaluation).
	Rows, CacheHits, CacheMisses, OoDFlagged int
}

// Add accumulates ns into one stage.
func (t *StageTimings) Add(s Stage, ns int64) { t.Ns[s] += ns }

// Trace is one retained request: identity, outcome, and the per-stage
// latency split. Traces are pooled by the Tracer and stored by value in
// the ring, so the struct holds no pointers beyond its strings.
type Trace struct {
	// ID is the request's trace ID (rendered as 16 hex digits in JSON and
	// the X-Trace-Id header).
	ID uint64
	// Parent is the upstream hop's trace ID (0 when the request arrived
	// directly). A fleet router stamps its own ID on the X-Trace-Id header
	// of every sub-request it dispatches, so one router-side ID links the
	// retained traces of all the replicas that served its rows.
	Parent  uint64
	System  string
	Version int
	// Start is the request's wall-clock start.
	Start time.Time
	// Timings is the stage split (counts included).
	Timings StageTimings
	// Err is the predict error, empty on success.
	Err string
	// Shed marks a request rejected by admission control before any work
	// ran; Deadline marks one whose deadline expired in flight. Both are
	// classified ahead of Err in the keep policy and excluded from the
	// moving-p99 feed (neither measured the model).
	Shed, Deadline bool
	// Keep records why tail-sampling retained this trace: "error",
	// "deadline", "shed", "ood", "slow", or "sampled".
	Keep string
}

// FormatTraceID renders a trace ID the way the HTTP surface does.
func FormatTraceID(id uint64) string {
	var buf [16]byte
	b := strconv.AppendUint(buf[:0], id, 16)
	const pad = "0000000000000000"
	return pad[:16-len(b)] + string(b)
}

// ParseTraceID parses FormatTraceID output.
func ParseTraceID(s string) (uint64, error) {
	return strconv.ParseUint(s, 16, 64)
}

// traceParentKey carries an upstream trace ID through a request context —
// the fleet router's hop identity, read back when a replica-side trace is
// retained.
type traceParentKey struct{}

// WithTraceParent records an upstream trace ID on the context. id 0 is a
// no-op (no upstream hop).
func WithTraceParent(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceParentKey{}, id)
}

// TraceParent returns the upstream trace ID carried by ctx, or 0.
func TraceParent(ctx context.Context) uint64 {
	id, _ := ctx.Value(traceParentKey{}).(uint64)
	return id
}

// TraceSummary is the list view of one retained trace (GET /v1/trace).
type TraceSummary struct {
	TraceID string `json:"trace_id"`
	// ParentID is the upstream hop's trace ID (the router's X-Trace-Id),
	// absent for directly served requests.
	ParentID   string    `json:"parent_trace_id,omitempty"`
	System     string    `json:"system"`
	Version    int       `json:"version"`
	Start      time.Time `json:"start"`
	TotalNs    int64     `json:"total_ns"`
	Rows       int       `json:"rows"`
	CacheHits  int       `json:"cache_hits"`
	OoDFlagged int       `json:"ood_flagged"`
	Kept       string    `json:"kept_because"`
	Error      string    `json:"error,omitempty"`
}

// SpanNode is one node of the rendered span tree.
type SpanNode struct {
	Name       string     `json:"name"`
	DurationNs int64      `json:"duration_ns"`
	Children   []SpanNode `json:"children,omitempty"`
}

// TraceDetail is the full view of one trace (GET /v1/trace/{id}).
type TraceDetail struct {
	TraceSummary
	CacheMisses int `json:"cache_misses"`
	// Spans is the request's span tree; guard nests under evaluate.
	Spans SpanNode `json:"spans"`
}

// Summary renders the trace's list view.
func (t *Trace) Summary() TraceSummary {
	parent := ""
	if t.Parent != 0 {
		parent = FormatTraceID(t.Parent)
	}
	return TraceSummary{
		TraceID:    FormatTraceID(t.ID),
		ParentID:   parent,
		System:     t.System,
		Version:    t.Version,
		Start:      t.Start,
		TotalNs:    t.Timings.TotalNs,
		Rows:       t.Timings.Rows,
		CacheHits:  t.Timings.CacheHits,
		OoDFlagged: t.Timings.OoDFlagged,
		Kept:       t.Keep,
		Error:      t.Err,
	}
}

// Detail renders the trace's full view including the span tree.
func (t *Trace) Detail() TraceDetail {
	return TraceDetail{
		TraceSummary: t.Summary(),
		CacheMisses:  t.Timings.CacheMisses,
		Spans:        t.SpanTree(),
	}
}

// SpanTree assembles the request's spans: a "request" root whose children
// are the pipeline stages in flow order, with guard nested under evaluate
// (it is a slice of the evaluation, not a sibling phase). Stages that did
// not run (e.g. queue wait on a fully cached request, or decode and encode
// on an in-process call) are elided. The encode span follows the root's
// duration: the response it times carries that duration.
func (t *Trace) SpanTree() SpanNode {
	root := SpanNode{Name: "request", DurationNs: t.Timings.TotalNs}
	ran := func(s Stage) bool {
		// Batcher stages ran whenever rows missed the cache, even if the
		// measured duration rounded to zero (an immediately drained wave).
		switch s {
		case StageQueueWait, StageWaveAssemble, StageEvaluate, StageFinalize:
			return t.Timings.CacheMisses > 0
		default:
			return t.Timings.Ns[s] > 0 || s == StageCacheLookup
		}
	}
	for _, s := range []Stage{StageDecode, StageCacheLookup, StageQueueWait, StageWaveAssemble, StageEvaluate, StageFinalize, StageObserve, StageEncode} {
		if !ran(s) {
			continue
		}
		node := SpanNode{Name: s.String(), DurationNs: t.Timings.Ns[s]}
		if s == StageEvaluate && t.Timings.Ns[StageGuard] > 0 {
			node.Children = []SpanNode{{Name: StageGuard.String(), DurationNs: t.Timings.Ns[StageGuard]}}
		}
		root.Children = append(root.Children, node)
	}
	return root
}
