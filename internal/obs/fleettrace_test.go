package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestWithTraceParentZeroIsNoOp(t *testing.T) {
	ctx := context.Background()
	if got := WithTraceParent(ctx, 0); got != ctx {
		t.Fatal("WithTraceParent(ctx, 0) wrapped the context")
	}
	if id := TraceParent(WithTraceParent(ctx, 0)); id != 0 {
		t.Fatalf("TraceParent after id-0 = %d", id)
	}
	if id := TraceParent(WithTraceParent(ctx, 42)); id != 42 {
		t.Fatalf("TraceParent = %d, want 42", id)
	}
}

func newFleetTrace(id uint64) *FleetTrace {
	ft := &FleetTrace{
		ID:      id,
		System:  "theta",
		Start:   time.Unix(500, 0),
		TotalNs: 10_000_000,
		Rows:    16,
	}
	ft.StageNs[RouterStageAdmit] = 50_000
	ft.StageNs[RouterStageScore] = 20_000
	ft.StageNs[RouterStageFanout] = 9_000_000
	ft.StageNs[RouterStageReassemble] = 30_000
	ft.Hops = []HopSpan{
		{Replica: "r1", TraceID: 0xa1, Rows: 10, DurationNs: 8_000_000, ReplicaTotalNs: 7_000_000},
		{Replica: "r2", TraceID: 0xb2, Rows: 6, DurationNs: 5_000_000, ReplicaTotalNs: 4_500_000},
	}
	return ft
}

func TestRouterTracerKeepPolicy(t *testing.T) {
	// Errors always kept.
	rt := NewRouterTracer(Config{SlowAfter: time.Hour})
	errTrace := newFleetTrace(1)
	errTrace.Err = "boom"
	if rt.Finish(errTrace) != 1 {
		t.Fatal("error trace not retained")
	}
	if tr, ok := rt.Get(1); !ok || tr.Keep != KeepError {
		t.Fatalf("Get(1) = %+v, %v", tr, ok)
	}

	// Below threshold and unsampled: dropped.
	if rt.Finish(newFleetTrace(2)) != 0 {
		t.Fatal("fast trace retained with sampling off")
	}
	if _, ok := rt.Get(2); ok {
		t.Fatal("dropped trace is fetchable")
	}

	// Slow threshold retains.
	slow := newFleetTrace(3)
	slow.TotalNs = (2 * time.Hour).Nanoseconds()
	if rt.Finish(slow) != 3 {
		t.Fatal("slow trace not retained")
	}
	if tr, _ := rt.Get(3); tr.Keep != KeepSlow {
		t.Fatalf("slow keep reason = %q", tr.Keep)
	}

	// Head sampling: every finish kept with SampleEvery 1.
	rt = NewRouterTracer(Config{SampleEvery: 1, SlowAfter: time.Hour})
	if rt.Finish(newFleetTrace(4)) != 4 {
		t.Fatal("head sample not retained")
	}
	if tr, _ := rt.Get(4); tr.Keep != KeepSampled {
		t.Fatalf("sampled keep reason = %q", tr.Keep)
	}

	// Retained copies are deep: mutating the caller's hops afterwards must
	// not reach the ring.
	src := newFleetTrace(5)
	rt.Finish(src)
	src.Hops[0].Replica = "mutated"
	if tr, _ := rt.Get(5); tr.Hops[0].Replica != "r1" {
		t.Fatalf("ring aliases caller hops: %q", tr.Hops[0].Replica)
	}

	var buf strings.Builder
	if err := WritePromText(&buf, rt.Families()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `iorouter_traces_kept_total{reason="sampled"} 2`) {
		t.Errorf("kept counter missing in:\n%s", buf.String())
	}
}

func TestRouterTracerRingEviction(t *testing.T) {
	rt := NewRouterTracer(Config{SampleEvery: 1, RingSize: 2, SlowAfter: time.Hour})
	for id := uint64(1); id <= 3; id++ {
		rt.Finish(newFleetTrace(id))
	}
	if _, ok := rt.Get(1); ok {
		t.Fatal("evicted trace still fetchable")
	}
	recent := rt.Recent(0)
	if len(recent) != 2 || recent[0].ID != 3 || recent[1].ID != 2 {
		t.Fatalf("Recent = %+v", recent)
	}
	if one := rt.Recent(1); len(one) != 1 || one[0].ID != 3 {
		t.Fatalf("Recent(1) = %+v", one)
	}
}

func TestStitchFullTree(t *testing.T) {
	ft := newFleetTrace(7)
	details := map[uint64]*TraceDetail{
		0xa1: {TraceSummary: TraceSummary{TraceID: FormatTraceID(0xa1), TotalNs: 7_000_000},
			Spans: SpanNode{Name: "request", DurationNs: 7_000_000,
				Children: []SpanNode{{Name: "evaluate", DurationNs: 6_000_000}}}},
		0xb2: {TraceSummary: TraceSummary{TraceID: FormatTraceID(0xb2), TotalNs: 4_500_000},
			Spans: SpanNode{Name: "request", DurationNs: 4_500_000}},
	}
	st := ft.Stitch(func(replica string, id uint64) (*TraceDetail, bool) {
		d, ok := details[id]
		return d, ok
	})

	if st.TraceID != FormatTraceID(7) || st.TotalNs != ft.TotalNs {
		t.Fatalf("stitched header wrong: %+v", st)
	}
	if len(st.Hops) != 2 {
		t.Fatalf("hops = %+v", st.Hops)
	}
	// Per-hop network time = router round trip minus replica total.
	if st.Hops[0].NetworkNs != 1_000_000 || st.Hops[1].NetworkNs != 500_000 {
		t.Fatalf("network time = %d/%d", st.Hops[0].NetworkNs, st.Hops[1].NetworkNs)
	}
	if st.Hops[0].Missing || st.Hops[1].Missing {
		t.Fatal("fetched hops marked missing")
	}

	// Tree shape: request -> [admit, score, fanout, reassemble], fanout ->
	// per-replica hop spans, hop -> [network, replica tree].
	if st.Spans.Name != "request" || len(st.Spans.Children) != 4 {
		t.Fatalf("root = %+v", st.Spans)
	}
	var fanout *SpanNode
	for i := range st.Spans.Children {
		if st.Spans.Children[i].Name == "fanout" {
			fanout = &st.Spans.Children[i]
		}
	}
	if fanout == nil || len(fanout.Children) != 2 {
		t.Fatalf("fanout span = %+v", fanout)
	}
	hop := fanout.Children[0]
	if hop.Name != "replica r1" || len(hop.Children) != 2 {
		t.Fatalf("hop span = %+v", hop)
	}
	if hop.Children[0].Name != "network" || hop.Children[0].DurationNs != 1_000_000 {
		t.Fatalf("network span = %+v", hop.Children[0])
	}
	spliced := hop.Children[1]
	if !strings.HasPrefix(spliced.Name, "replica request ") || len(spliced.Children) != 1 || spliced.Children[0].Name != "evaluate" {
		t.Fatalf("replica tree not spliced: %+v", spliced)
	}

	// Router stage sums stay within the request total.
	var stageSum int64
	for _, ns := range ft.StageNs {
		stageSum += ns
	}
	if stageSum > ft.TotalNs {
		t.Fatalf("stage sum %d exceeds total %d", stageSum, ft.TotalNs)
	}
}

func TestStitchOrphanedHopDegradesToMissing(t *testing.T) {
	ft := newFleetTrace(8)
	// r2's trace was evicted from its replica ring before stitching; r1's
	// response never carried a trace ID at all.
	ft.Hops[0].TraceID = 0
	st := ft.Stitch(func(replica string, id uint64) (*TraceDetail, bool) {
		return nil, false
	})
	for i, hop := range st.Hops {
		if !hop.Missing {
			t.Fatalf("hop %d not marked missing: %+v", i, hop)
		}
	}
	// The partial tree keeps router-side spans and an explicit missing
	// marker where the replica tree would splice in.
	var fanout *SpanNode
	for i := range st.Spans.Children {
		if st.Spans.Children[i].Name == "fanout" {
			fanout = &st.Spans.Children[i]
		}
	}
	if fanout == nil {
		t.Fatal("fanout span missing from partial tree")
	}
	for _, hop := range fanout.Children {
		last := hop.Children[len(hop.Children)-1]
		if last.Name != "missing" {
			t.Fatalf("orphaned hop lacks missing marker: %+v", hop)
		}
	}
	// Network attribution falls back to the response-reported replica
	// total when present (r2), and the full round trip when not (r1).
	if st.Hops[0].NetworkNs != 1_000_000 { // ReplicaTotalNs still known from response timings
		t.Fatalf("hop 0 network = %d", st.Hops[0].NetworkNs)
	}
}
