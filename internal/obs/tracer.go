package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Keep reasons recorded on retained traces (Trace.Keep) and counted in the
// tracer's exposition series.
const (
	KeepError    = "error"
	KeepDeadline = "deadline"
	KeepShed     = "shed"
	KeepOoD      = "ood"
	KeepSlow     = "slow"
	KeepSampled  = "sampled"
)

// keepReasons orders the reasons for deterministic exposition.
var keepReasons = [...]string{KeepError, KeepDeadline, KeepShed, KeepOoD, KeepSlow, KeepSampled}

// Config tunes a Tracer.
type Config struct {
	// SampleEvery head-samples one of every N finished requests into the
	// ring regardless of outcome (<= 0 disables head sampling; the tail
	// keeps below still apply). Errors, OoD-flagged requests, and requests
	// slower than the moving p99 threshold are always retained.
	SampleEvery int
	// RingSize is the retained-trace capacity (default 256).
	RingSize int
	// SlowAfter pins the slow-trace threshold to a fixed duration instead
	// of the moving p99 estimate (tests; 0 keeps the adaptive threshold).
	SlowAfter time.Duration
}

// slowRecomputeEvery is how many finished traces elapse between p99
// threshold refreshes; it is also the minimum sample before the adaptive
// threshold arms (until then nothing is "slow").
const slowRecomputeEvery = 128

// tail is the tail-sampling core Tracer and RouterTracer share: the keep
// policy (a reason the caller already decided, else slower than the slow
// threshold, else the 1-in-N head sample), the moving p99 the adaptive
// threshold is read from, and the kept/dropped counters.
type tail struct {
	cfg     Config
	headCtr atomic.Uint64
	// lat is the moving p99 estimate the adaptive slow threshold is read
	// from (unused when cfg.SlowAfter pins the threshold).
	lat *MovingP99
	// kept / dropped count finished traces, kept split by reason (indexed
	// like keepReasons).
	kept    [len(keepReasons)]atomic.Uint64
	dropped atomic.Uint64
}

// keep decides one finished trace. reason is a keep reason the caller has
// already decided ("" for none); observe feeds totalNs to the moving p99.
// It returns the reason the trace is kept for, or "" when it is dropped.
func (c *tail) keep(reason string, totalNs int64, observe bool) string {
	if observe && c.cfg.SlowAfter <= 0 {
		c.lat.Observe(totalNs)
	}
	switch {
	case reason != "":
	case totalNs >= int64(c.SlowThreshold()):
		reason = KeepSlow
	case c.cfg.SampleEvery > 0 && c.headCtr.Add(1)%uint64(c.cfg.SampleEvery) == 0:
		reason = KeepSampled
	default:
		c.dropped.Add(1)
		return ""
	}
	for i, r := range keepReasons {
		if r == reason {
			c.kept[i].Add(1)
		}
	}
	return reason
}

// SlowThreshold reports the current slow-trace bar (MaxInt64 duration
// until the adaptive estimate arms).
func (c *tail) SlowThreshold() time.Duration {
	if c.cfg.SlowAfter > 0 {
		return c.cfg.SlowAfter
	}
	return time.Duration(c.lat.Value())
}

// SlowSeconds reports the slow-trace bar in seconds as the metrics and
// trace listings show it: 0 until the adaptive estimate arms.
func (c *tail) SlowSeconds() float64 {
	if c.cfg.SlowAfter > 0 {
		return c.cfg.SlowAfter.Seconds()
	}
	return c.lat.Seconds()
}

// families renders the counters under prefix ("ioserve" or "iorouter");
// traces names what is retained in the HELP text. Keep reasons render in
// fixed order so scrapes are deterministic.
func (c *tail) families(prefix, traces string) []PromFamily {
	kept := PromFamily{
		Name: prefix + "_traces_kept_total",
		Help: strings.ToUpper(traces[:1]) + traces[1:] + " retained by tail-sampling, by reason.",
		Type: "counter",
	}
	for i, reason := range keepReasons {
		kept.Samples = append(kept.Samples, PromSample{Name: kept.Name, Labels: PromLabels("reason", reason), Value: float64(c.kept[i].Load())})
	}
	dropped := prefix + "_traces_dropped_total"
	slow := prefix + "_trace_slow_threshold_seconds"
	return []PromFamily{
		kept,
		{Name: dropped, Help: "Finished " + traces + " discarded by sampling.", Type: "counter",
			Samples: []PromSample{{Name: dropped, Value: float64(c.dropped.Load())}}},
		{Name: slow, Help: "Moving p99 threshold above which " + traces + " are always retained (0 until armed).", Type: "gauge",
			Samples: []PromSample{{Name: slow, Value: c.SlowSeconds()}}},
	}
}

// Tracer owns the request-trace lifecycle: pooled Trace records, the
// tail-sampling keep policy, and the retained-trace ring. A nil *Tracer is
// inert — Start returns nil and Finish of a nil trace is a no-op — so the
// serving path can thread one unconditionally.
type Tracer struct {
	tail
	ring *ring[Trace]
	pool sync.Pool

	// seq + idBase generate unique trace IDs without coordination.
	seq    atomic.Uint64
	idBase uint64
}

// NewTracer builds a tracer under cfg.
func NewTracer(cfg Config) *Tracer {
	tr := &Tracer{tail: tail{cfg: cfg, lat: NewMovingP99(0)}, ring: newRing[Trace](cfg.RingSize)}
	tr.idBase = uint64(time.Now().UnixNano()) << 16
	tr.pool.New = func() any { return new(Trace) }
	return tr
}

// Start returns a pooled, reset Trace for one request. Nil receiver (tracing
// disabled) returns nil.
func (tr *Tracer) Start(system string, version int, start time.Time) *Trace {
	if tr == nil {
		return nil
	}
	t := tr.pool.Get().(*Trace)
	*t = Trace{ID: tr.idBase + tr.seq.Add(1), System: system, Version: version, Start: start}
	return t
}

// Finish applies the tail-sampling policy and recycles t: retained traces
// are copied into the ring and their ID returned; everything else is
// dropped (returns 0). t must not be touched after Finish.
func (tr *Tracer) Finish(t *Trace) uint64 {
	id := tr.Decide(t)
	if id != 0 {
		tr.Commit(t)
	}
	return id
}

// Decide applies the tail-sampling policy to a finished request. A dropped
// trace is recycled and 0 returned; a retained one returns its ID and
// stays the caller's until Commit, so a stage that runs after the decision
// (the response encode, which carries the ID) can still be recorded on it.
func (tr *Tracer) Decide(t *Trace) uint64 {
	if tr == nil || t == nil {
		return 0
	}
	var reason string
	switch {
	case t.Shed:
		reason = KeepShed
	case t.Deadline:
		reason = KeepDeadline
	case t.Err != "":
		reason = KeepError
	case t.Timings.OoDFlagged > 0:
		reason = KeepOoD
	}
	// Shed and deadline-expired requests never reached the model, so their
	// latency would poison the p99 the slow threshold adapts to.
	t.Keep = tr.keep(reason, t.Timings.TotalNs, !t.Shed && !t.Deadline)
	if t.Keep == "" {
		tr.pool.Put(t)
		return 0
	}
	return t.ID
}

// Commit copies a trace Decide retained into the ring and recycles it. t
// must not be touched after Commit.
func (tr *Tracer) Commit(t *Trace) {
	tr.ring.Push(t)
	tr.pool.Put(t)
}

// Recent returns up to limit retained traces, newest first.
func (tr *Tracer) Recent(limit int) []Trace { return tr.ring.Snapshot(limit) }

// Get returns the retained trace with the given ID.
func (tr *Tracer) Get(id uint64) (Trace, bool) { return tr.ring.Get(id) }

// Families returns the tracer's ioserve_trace* metric families.
func (tr *Tracer) Families() []PromFamily { return tr.families("ioserve", "traces") }
