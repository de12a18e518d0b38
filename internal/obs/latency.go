package obs

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// latencyBuckets is the one latency ladder of the serving stack, in
// nanoseconds: 50µs .. 1s, roughly 1-2.5-5 per decade, +Inf implicit. The
// /metrics histograms, the moving p99 estimates and the SLO quantiles all
// bucket over it, so they agree on what a latency bucket is.
var latencyBuckets = [...]int64{
	50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000,
	25_000_000, 50_000_000, 100_000_000, 250_000_000,
	500_000_000, 1_000_000_000,
}

// MovingP99 is a lock-free windowed p99 latency estimator over the shared
// latencyBuckets ladder. Observations accumulate in per-bucket counters; every
// window-th observation the p99 bucket bound is recomputed from the window's
// counts and the counters reset, so the estimate tracks the *recent*
// distribution rather than the lifetime one. Until the first window
// completes the estimate is disarmed (Value reports MaxInt64, Armed is
// false) — callers that gate on "latency above p99" must check Armed first
// or a disarmed estimator reads as infinitely slow.
//
// Both the tracer's slow-trace threshold and the admission gate's latency
// shed trigger are built on this type, so the two subsystems agree on what
// "p99" means.
type MovingP99 struct {
	window uint64
	counts [len(latencyBuckets) + 1]atomic.Uint64
	n      atomic.Uint64
	p99    atomic.Int64
}

// NewMovingP99 builds an estimator that recomputes every window
// observations (<= 0 uses the tracer's default of 128).
func NewMovingP99(window int) *MovingP99 {
	if window <= 0 {
		window = slowRecomputeEvery
	}
	m := &MovingP99{window: uint64(window)}
	m.p99.Store(math.MaxInt64)
	return m
}

// Observe records one request latency in nanoseconds.
func (m *MovingP99) Observe(ns int64) {
	idx := len(latencyBuckets)
	for i, ub := range latencyBuckets {
		if ns <= ub {
			idx = i
			break
		}
	}
	m.counts[idx].Add(1)
	if m.n.Add(1)%m.window != 0 {
		return
	}
	// Recompute the p99 bucket bound from this window, draining the
	// counters so the next window starts fresh. Racing recomputes split the
	// counts between them (Swap is atomic per bucket); the loser sees a
	// near-empty window and keeps the previous estimate — this is a
	// sampling threshold, not an invariant.
	var counts [len(latencyBuckets) + 1]uint64
	var total uint64
	for i := range counts {
		counts[i] = m.counts[i].Swap(0)
		total += counts[i]
	}
	if total == 0 {
		return
	}
	target := total - total/100 // ceil(0.99 * total) within one observation
	var cum uint64
	p := latencyBuckets[len(latencyBuckets)-1]
	for i, ub := range latencyBuckets {
		cum += counts[i]
		if cum >= target {
			p = ub
			break
		}
	}
	m.p99.Store(p)
}

// Value reports the current p99 bound in nanoseconds (MaxInt64 until the
// first window completes).
func (m *MovingP99) Value() int64 { return m.p99.Load() }

// Armed reports whether at least one window has completed and Value is a
// real estimate.
func (m *MovingP99) Armed() bool { return m.p99.Load() != math.MaxInt64 }

// Seconds reports Value in seconds, 0 until armed (for gauges — exposing
// MaxInt64 would wreck dashboards).
func (m *MovingP99) Seconds() float64 {
	v := m.p99.Load()
	if v == math.MaxInt64 {
		return 0
	}
	return float64(v) / 1e9
}

// LatencyHist is a fixed-bucket latency histogram over latencyBuckets with
// atomic counters.
type LatencyHist struct {
	// buckets[i] counts observations <= latencyBuckets[i]; overflow counts
	// the +Inf remainder.
	buckets  [len(latencyBuckets)]atomic.Uint64
	overflow atomic.Uint64
	sumNs    atomic.Uint64
	count    atomic.Uint64
}

// Observe records one request duration.
func (h *LatencyHist) Observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	h.sumNs.Add(ns)
	h.count.Add(1)
	for i, ub := range latencyBuckets {
		if ns <= uint64(ub) {
			h.buckets[i].Add(1)
			return
		}
	}
	h.overflow.Add(1)
}

// Count returns the number of observations.
func (h *LatencyHist) Count() uint64 { return h.count.Load() }

// latencyLE is the ladder's le label values in seconds, +Inf last,
// formatted once.
var latencyLE = func() (le [len(latencyBuckets) + 1]string) {
	for i, ub := range latencyBuckets {
		le[i] = strconv.FormatFloat(float64(ub)/1e9, 'g', -1, 64)
	}
	le[len(latencyBuckets)] = "+Inf"
	return le
}()

// Samples expands the histogram into the cumulative name_bucket series
// (le in seconds, +Inf last), then name_sum in seconds and name_count.
// kv are extra label pairs, as PromLabels takes them, rendered ahead of le
// so one family can carry several labeled histograms.
func (h *LatencyHist) Samples(name string, kv ...string) []PromSample {
	labels := PromLabels(kv...)
	open := "{"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	bucket := name + "_bucket"
	out := make([]PromSample, 0, len(latencyLE)+2)
	var cum uint64
	for i, le := range latencyLE {
		if i < len(latencyBuckets) {
			cum += h.buckets[i].Load()
		} else {
			cum += h.overflow.Load()
		}
		out = append(out, PromSample{Name: bucket, Labels: open + `le="` + le + `"}`, Value: float64(cum)})
	}
	return append(out,
		PromSample{Name: name + "_sum", Labels: labels, Value: float64(h.sumNs.Load()) / 1e9},
		PromSample{Name: name + "_count", Labels: labels, Value: float64(h.count.Load())},
	)
}
