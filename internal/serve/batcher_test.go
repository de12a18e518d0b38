package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestBatcherMatchesDirectEvaluation(t *testing.T) {
	frame, _, v2 := fixture(t)
	m := &Metrics{}
	b := NewBatcher(8, time.Millisecond, 2, m)
	defer b.Close()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		row := frame.Row(i)
		res, err := submitRow(b, ctx, v2, row)
		if err != nil {
			t.Fatal(err)
		}
		want := v2.Model.Predict(row)
		if res.PredLog != want {
			t.Fatalf("row %d: batched %v != direct %v", i, res.PredLog, want)
		}
		if res.Guard == nil {
			t.Fatalf("row %d: no guard on guarded bundle", i)
		}
	}
}

func TestBatcherCoalesces(t *testing.T) {
	frame, _, v2 := fixture(t)
	m := &Metrics{}
	// One worker and a generous delay so concurrent submissions must
	// share micro-batches.
	b := NewBatcher(64, 20*time.Millisecond, 1, m)
	defer b.Close()
	const n = 48
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = submitRow(b, context.Background(), v2, frame.Row(i))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := m.BatchedRows.Load(); got != n {
		t.Fatalf("batched %d rows, want %d", got, n)
	}
	if mean := m.MeanBatchSize(); mean < 2 {
		t.Errorf("mean batch size %.1f; concurrent load did not coalesce", mean)
	}
}

func TestBatcherMixedVersionsInOneBatch(t *testing.T) {
	frame, v1, v2 := fixture(t)
	b := NewBatcher(32, 10*time.Millisecond, 1, nil)
	defer b.Close()
	var wg sync.WaitGroup
	results := make([]Result, 2)
	errs := make([]error, 2)
	row := frame.Row(3)
	for i, mv := range []*ModelVersion{v1, v2} {
		wg.Add(1)
		go func(i int, mv *ModelVersion) {
			defer wg.Done()
			results[i], errs[i] = submitRow(b, context.Background(), mv, row)
		}(i, mv)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(i, err)
		}
	}
	if results[0].PredLog != v1.Model.Predict(row) || results[1].PredLog != v2.Model.Predict(row) {
		t.Error("mixed-version batch routed rows to the wrong model")
	}
}

// TestEvaluateFlatMatchesReference pins the zero-allocation evaluation
// path against the reference computation it replaced: Model.PredictAll for
// the point prediction and per-row Ensemble.Predict + Diagnose for the
// guardrail, all bit-identical.
func TestEvaluateFlatMatchesReference(t *testing.T) {
	frame, v1, _ := fixture(t)
	rows := frame.Rows()[:137] // crosses the flat engine's chunk handling
	got, err := evaluate(v1, rows)
	if err != nil {
		t.Fatal(err)
	}
	wantLogs := v1.Model.PredictAll(rows)
	for i, row := range rows {
		if got[i].PredLog != wantLogs[i] {
			t.Fatalf("row %d: flat PredLog %v != reference %v", i, got[i].PredLog, wantLogs[i])
		}
		scaled := make([]float64, len(row))
		if err := v1.Scaler.TransformRow(row, scaled); err != nil {
			t.Fatal(err)
		}
		ref := v1.Guard.Diagnose(v1.Ensemble.Predict(scaled))
		g := got[i].Guard
		if g == nil {
			t.Fatalf("row %d: missing guard", i)
		}
		if g.EU != ref.EU || g.AU != ref.AU || g.OoD != ref.OoD ||
			g.AtNoiseFloor != ref.AtNoiseFloor || g.ErrorSource != ref.ErrorSource {
			t.Fatalf("row %d: guard %+v != reference %+v", i, *g, ref)
		}
	}
}

// TestEvaluateSteadyStateAllocs: with a warm scratch, evaluating an
// unguarded bundle must stay allocation-free (the guarded path additionally
// allocates the escaping Guard block and the ensemble's member fan-out).
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	frame, v1, _ := fixture(t)
	unguarded := v1.derive()
	unguarded.Ensemble = nil
	unguarded.Scaler = nil
	rows := frame.Rows()[:16]
	s := &evalScratch{}
	if _, err := evaluateInto(unguarded, rows, s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := evaluateInto(unguarded, rows, s); err != nil {
			t.Fatal(err)
		}
	})
	// The flat engine's chunk codes come from a sync.Pool, which may
	// occasionally refill after a GC; anything beyond that is a leak in
	// the zero-allocation contract.
	if allocs > 1 {
		t.Fatalf("steady-state evaluateInto allocates %.1f times per call, want <= 1", allocs)
	}
}

func TestBatcherClose(t *testing.T) {
	_, _, v2 := fixture(t)
	b := NewBatcher(4, time.Millisecond, 1, nil)
	b.Close()
	if _, err := submitRow(b, context.Background(), v2, make([]float64, len(v2.Columns))); err == nil {
		t.Error("submit after close succeeded")
	}
}

func TestBatcherContextCancel(t *testing.T) {
	_, _, v2 := fixture(t)
	b := NewBatcher(4, time.Millisecond, 1, nil)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := submitRow(b, ctx, v2, make([]float64, len(v2.Columns))); err == nil {
		t.Error("submit with canceled context succeeded")
	}
}

// submitRow submits one row as a single-row wave and returns its result.
func submitRow(b *Batcher, ctx context.Context, mv *ModelVersion, row []float64) (Result, error) {
	results, _, err := b.SubmitWave(ctx, mv, [][]float64{row})
	if err != nil {
		return Result{}, err
	}
	res := results[0]
	putResults(results)
	return res, nil
}
