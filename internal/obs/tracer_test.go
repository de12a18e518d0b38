package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if got := tr.Start("theta", 1, time.Now()); got != nil {
		t.Fatalf("nil tracer Start = %+v, want nil", got)
	}
	if id := tr.Finish(nil); id != 0 {
		t.Fatalf("nil tracer Finish = %d, want 0", id)
	}
}

// TestSpanLifecycleAndPooling: Start hands out reset traces (no state
// leaks across pool reuse) with unique ascending IDs, and a kept trace is
// retrievable by the ID Finish returned.
func TestSpanLifecycleAndPooling(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, RingSize: 8})
	a := tr.Start("theta", 1, time.Unix(50, 0))
	a.Err = "boom"
	a.Timings.Ns[StageEvaluate] = 123
	idA := tr.Finish(a)
	if idA == 0 {
		t.Fatal("error trace was dropped")
	}
	// The pool almost certainly hands the same *Trace back; either way the
	// new trace must carry no residue of the old one.
	b := tr.Start("cori", 2, time.Unix(60, 0))
	if b.Err != "" || b.Keep != "" || b.Timings.Ns[StageEvaluate] != 0 {
		t.Fatalf("pooled trace not reset: %+v", b)
	}
	if b.ID <= idA {
		t.Fatalf("IDs not ascending: %d then %d", idA, b.ID)
	}
	if b.System != "cori" || b.Version != 2 {
		t.Fatalf("trace identity wrong: %+v", b)
	}
	idB := tr.Finish(b)
	got, ok := tr.Get(idB)
	if !ok || got.System != "cori" || got.Keep != KeepSampled {
		t.Fatalf("Get(%d) = %+v, %v", idB, got, ok)
	}
	// The retained copy of A must be unaffected by B's pool reuse.
	gotA, ok := tr.Get(idA)
	if !ok || gotA.Err != "boom" || gotA.Keep != KeepError {
		t.Fatalf("Get(%d) = %+v, %v", idA, gotA, ok)
	}
}

// TestTailSamplingReasons exercises the keep policy and its priority
// order: error > ood > slow > head-sampled > dropped.
func TestTailSamplingReasons(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 0, RingSize: 16, SlowAfter: time.Millisecond})
	finish := func(mutate func(*Trace)) (uint64, string) {
		tc := tr.Start("theta", 1, time.Now())
		mutate(tc)
		id := tr.Finish(tc)
		if id == 0 {
			return 0, ""
		}
		got, _ := tr.Get(id)
		return id, got.Keep
	}

	if id, keep := finish(func(tc *Trace) { tc.Err = "x"; tc.Timings.OoDFlagged = 3 }); id == 0 || keep != KeepError {
		t.Fatalf("error trace: id=%d keep=%q", id, keep)
	}
	if id, keep := finish(func(tc *Trace) { tc.Timings.OoDFlagged = 1 }); id == 0 || keep != KeepOoD {
		t.Fatalf("ood trace: id=%d keep=%q", id, keep)
	}
	if id, keep := finish(func(tc *Trace) { tc.Timings.TotalNs = 2e6 }); id == 0 || keep != KeepSlow {
		t.Fatalf("slow trace: id=%d keep=%q", id, keep)
	}
	// Fast, clean, no head sampling: dropped.
	if id, _ := finish(func(tc *Trace) { tc.Timings.TotalNs = 1000 }); id != 0 {
		t.Fatalf("clean trace was kept with sampling off: id=%d", id)
	}

	// Head sampling keeps 1 in 2 of otherwise-dropped traces.
	tr2 := NewTracer(Config{SampleEvery: 2, RingSize: 16, SlowAfter: time.Hour})
	kept := 0
	for i := 0; i < 10; i++ {
		tc := tr2.Start("theta", 1, time.Now())
		if tr2.Finish(tc) != 0 {
			kept++
		}
	}
	if kept != 5 {
		t.Fatalf("head sample kept %d of 10, want 5", kept)
	}
}

// TestMovingP99Arms: with no SlowAfter pin, the threshold stays disarmed
// (MaxInt64) until slowRecomputeEvery observations, then lands on the p99
// bucket bound of the observed distribution.
func TestMovingP99Arms(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 0, RingSize: 4})
	if tr.SlowThreshold() != time.Duration(math.MaxInt64) {
		t.Fatalf("threshold armed prematurely: %v", tr.SlowThreshold())
	}
	// 127 fast requests (~80µs) + 1 at 900ms: p99 lands in the 100µs bucket.
	for i := 0; i < slowRecomputeEvery-1; i++ {
		tc := tr.Start("theta", 1, time.Now())
		tc.Timings.TotalNs = 80_000
		tr.Finish(tc)
	}
	tc := tr.Start("theta", 1, time.Now())
	tc.Timings.TotalNs = 900_000_000
	tr.Finish(tc)
	if got := tr.SlowThreshold(); got != 100*time.Microsecond {
		t.Fatalf("threshold = %v, want 100µs", got)
	}
	// Now a 200µs request is slower than the moving p99 and is retained.
	tc = tr.Start("theta", 1, time.Now())
	tc.Timings.TotalNs = 200_000
	id := tr.Finish(tc)
	if id == 0 {
		t.Fatal("slower-than-p99 trace was dropped")
	}
	if got, _ := tr.Get(id); got.Keep != KeepSlow {
		t.Fatalf("keep = %q, want %q", got.Keep, KeepSlow)
	}
}

func TestTracerWriteMetrics(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, RingSize: 4})
	tc := tr.Start("theta", 1, time.Now())
	tr.Finish(tc)
	var sb strings.Builder
	if err := WritePromText(&sb, tr.Families()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`ioserve_traces_kept_total{reason="sampled"} 1`,
		`ioserve_traces_kept_total{reason="error"} 0`,
		"ioserve_traces_dropped_total 0",
		// Unarmed threshold renders 0, not MaxInt64.
		"ioserve_trace_slow_threshold_seconds 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	// Reasons must render in fixed order for deterministic scrapes.
	if strings.Index(out, `reason="error"`) > strings.Index(out, `reason="sampled"`) {
		t.Error("keep reasons not in fixed order")
	}
}

func TestRecentNewestFirst(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, RingSize: 4})
	var ids []uint64
	for i := 0; i < 3; i++ {
		tc := tr.Start("theta", 1, time.Now())
		ids = append(ids, tr.Finish(tc))
	}
	recent := tr.Recent(0)
	if len(recent) != 3 || recent[0].ID != ids[2] || recent[2].ID != ids[0] {
		t.Fatalf("Recent = %+v, want newest first of %v", recent, ids)
	}
}

// TestDecideThenCommit: a retained trace is the caller's between Decide and
// Commit, so a stage timed after the keep decision still lands on it; a
// dropped one never reaches the ring.
func TestDecideThenCommit(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 2, RingSize: 8, SlowAfter: time.Hour})
	dropped := tr.Start("theta", 1, time.Unix(1, 0))
	if id := tr.Decide(dropped); id != 0 {
		t.Fatalf("1st of every 2 kept (id %d)", id)
	}
	kept := tr.Start("theta", 1, time.Unix(2, 0))
	id := tr.Decide(kept)
	if id == 0 {
		t.Fatal("2nd of every 2 dropped")
	}
	if _, ok := tr.Get(id); ok {
		t.Fatal("trace in the ring before Commit")
	}
	kept.Timings.Ns[StageEncode] = 77
	tr.Commit(kept)
	got, ok := tr.Get(id)
	if !ok || got.Timings.Ns[StageEncode] != 77 || got.Keep != KeepSampled {
		t.Fatalf("committed trace = %+v, %v", got, ok)
	}
}
