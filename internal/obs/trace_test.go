package obs

import (
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, 1<<63 + 12345} {
		s := FormatTraceID(id)
		if len(s) != 16 {
			t.Fatalf("FormatTraceID(%d) = %q, want 16 hex digits", id, s)
		}
		back, err := ParseTraceID(s)
		if err != nil || back != id {
			t.Fatalf("ParseTraceID(%q) = %d, %v, want %d", s, back, err, id)
		}
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
}

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageCacheLookup: "cache_lookup", StageQueueWait: "queue_wait",
		StageWaveAssemble: "wave_assemble", StageEvaluate: "evaluate",
		StageGuard: "guard", StageFinalize: "finalize", StageObserve: "observe",
		StageDecode: "decode", StageEncode: "encode",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", st, st.String(), name)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Errorf("out-of-range stage = %q, want unknown", Stage(200).String())
	}
}

// TestSpanTreeFullyCached: a request answered entirely from cache shows
// cache_lookup (and observe, if it ran) but none of the batcher stages.
func TestSpanTreeFullyCached(t *testing.T) {
	tr := Trace{Timings: StageTimings{TotalNs: 5000, Rows: 4, CacheHits: 4}}
	tr.Timings.Ns[StageCacheLookup] = 3000
	root := tr.SpanTree()
	if root.Name != "request" || root.DurationNs != 5000 {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "cache_lookup" {
		t.Fatalf("children = %+v, want cache_lookup only", root.Children)
	}
}

// TestSpanTreeWithMisses: batcher stages appear whenever rows missed the
// cache — including stages whose measured duration rounded to zero (an
// immediately drained wave) — and guard nests under evaluate.
func TestSpanTreeWithMisses(t *testing.T) {
	tr := Trace{Timings: StageTimings{TotalNs: 100_000, Rows: 4, CacheMisses: 4}}
	tr.Timings.Ns[StageCacheLookup] = 1000
	tr.Timings.Ns[StageQueueWait] = 0 // drained immediately: still a span
	tr.Timings.Ns[StageWaveAssemble] = 2000
	tr.Timings.Ns[StageEvaluate] = 60_000
	tr.Timings.Ns[StageGuard] = 20_000
	tr.Timings.Ns[StageFinalize] = 500
	tr.Timings.Ns[StageObserve] = 300
	root := tr.SpanTree()
	got := map[string]SpanNode{}
	for _, c := range root.Children {
		got[c.Name] = c
	}
	for _, name := range []string{"cache_lookup", "queue_wait", "wave_assemble", "evaluate", "finalize", "observe"} {
		if _, ok := got[name]; !ok {
			t.Errorf("missing span %q in %+v", name, root.Children)
		}
	}
	eval := got["evaluate"]
	if len(eval.Children) != 1 || eval.Children[0].Name != "guard" || eval.Children[0].DurationNs != 20_000 {
		t.Errorf("guard not nested under evaluate: %+v", eval)
	}
	if _, ok := got["guard"]; ok {
		t.Error("guard appeared as a top-level span")
	}
}

func TestRingWrapAndLookup(t *testing.T) {
	r := newRing[Trace](4)
	for i := 1; i <= 6; i++ {
		r.Push(&Trace{ID: uint64(i)})
	}
	snap := r.Snapshot(0)
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	// Newest first: 6, 5, 4, 3. IDs 1 and 2 were overwritten.
	for i, want := range []uint64{6, 5, 4, 3} {
		if snap[i].ID != want {
			t.Errorf("snap[%d].ID = %d, want %d", i, snap[i].ID, want)
		}
	}
	if got := r.Snapshot(2); len(got) != 2 || got[0].ID != 6 {
		t.Errorf("Snapshot(2) = %+v", got)
	}
	if _, ok := r.Get(2); ok {
		t.Error("Get found an evicted trace")
	}
	if tr, ok := r.Get(5); !ok || tr.ID != 5 {
		t.Errorf("Get(5) = %+v, %v", tr, ok)
	}
}

// TestRingStoresByValue: mutating a pushed trace after Push must not alter
// the retained copy — that is what lets the tracer recycle traces into the
// pool immediately.
func TestRingStoresByValue(t *testing.T) {
	r := newRing[Trace](2)
	tr := &Trace{ID: 7, System: "theta", Start: time.Unix(100, 0)}
	r.Push(tr)
	tr.System = "clobbered"
	tr.ID = 999
	got, ok := r.Get(7)
	if !ok || got.System != "theta" {
		t.Fatalf("retained trace was aliased: %+v, %v", got, ok)
	}
}
