package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeTimer is a hand-driven batchTimer: the test decides when the
// straggler window "expires" by calling fire, so the lone-single-row path
// is exercised deterministically instead of racing a real clock. It
// honors the batchTimer contract — after Reset either fire puts a value
// on C, or Stop returns true and nothing is ever sent.
type fakeTimer struct {
	mu     sync.Mutex
	armed  bool
	ch     chan time.Time
	resets chan struct{} // one signal per Reset, so tests can sync with the worker
	stops  int           // Stop calls that found the timer armed
}

func newFakeTimer() *fakeTimer {
	return &fakeTimer{
		ch:     make(chan time.Time, 1),
		resets: make(chan struct{}, 64),
	}
}

func (f *fakeTimer) Reset(d time.Duration) {
	f.mu.Lock()
	f.armed = true
	f.mu.Unlock()
	f.resets <- struct{}{}
}

func (f *fakeTimer) Stop() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	was := f.armed
	f.armed = false
	if was {
		f.stops++
	}
	return was
}

func (f *fakeTimer) C() <-chan time.Time { return f.ch }

// fire expires the straggler window. Returns false if the timer was not
// armed (the worker already stopped it).
func (f *fakeTimer) fire() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armed {
		return false
	}
	f.armed = false
	f.ch <- time.Time{}
	return true
}

func (f *fakeTimer) armedStops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stops
}

// waitArmed blocks until the worker arms the straggler timer.
func (f *fakeTimer) waitArmed(t *testing.T) {
	t.Helper()
	select {
	case <-f.resets:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never armed the straggler timer")
	}
}

// clockedBatcher builds a one-worker batcher whose straggler timer is the
// returned fake. maxDelay is an hour: if anything in these tests waited on
// the real clock they would hang, so passing at all proves the fake drives
// the path.
func clockedBatcher(t *testing.T, m *Metrics) (*Batcher, *fakeTimer) {
	t.Helper()
	ft := newFakeTimer()
	b := newBatcherClocked(8, time.Hour, 1, m, nil, func() batchTimer { return ft })
	t.Cleanup(b.Close)
	return b, ft
}

// TestStragglerTimerFires pins the lone-wave wait deterministically: a
// single-row submission must park on the straggler timer and complete
// only once it fires, as a batch of exactly one row.
func TestStragglerTimerFires(t *testing.T) {
	frame, _, v2 := fixture(t)
	m := &Metrics{}
	b, ft := clockedBatcher(t, m)

	row := frame.Row(7)
	done := make(chan Result, 1)
	go func() {
		res, err := submitRow(b, context.Background(), v2, row)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()

	ft.waitArmed(t)
	// The worker is parked in the straggler select; nothing can flush
	// until the timer fires, so the submission cannot have completed.
	select {
	case <-done:
		t.Fatal("lone single-row wave completed before the straggler timer fired")
	default:
	}

	if !ft.fire() {
		t.Fatal("timer was not armed at fire time")
	}
	select {
	case res := <-done:
		if want := v2.Model.Predict(row); res.PredLog != want {
			t.Fatalf("timed-out straggler predicted %v, want %v", res.PredLog, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submission did not complete after the timer fired")
	}
	if got := m.Batches.Load(); got != 1 {
		t.Fatalf("flushed %d batches, want 1", got)
	}
	if got := m.BatchedRows.Load(); got != 1 {
		t.Fatalf("batched %d rows, want the lone straggler row", got)
	}
}

// TestStragglerPartnerStopsTimer pins the other arm of the select: a
// partner arriving inside the window must stop the timer (no fire ever
// happens) and share one two-row batch with the straggler.
func TestStragglerPartnerStopsTimer(t *testing.T) {
	frame, _, v2 := fixture(t)
	m := &Metrics{}
	b, ft := clockedBatcher(t, m)

	var wg sync.WaitGroup
	submit := func(i int) {
		defer wg.Done()
		res, err := submitRow(b, context.Background(), v2, frame.Row(i))
		if err != nil {
			t.Error(err)
			return
		}
		if want := v2.Model.Predict(frame.Row(i)); res.PredLog != want {
			t.Errorf("row %d: predicted %v, want %v", i, res.PredLog, want)
		}
	}

	wg.Add(1)
	go submit(1)
	ft.waitArmed(t)
	wg.Add(1)
	go submit(2)
	wg.Wait()

	if got := ft.armedStops(); got != 1 {
		t.Fatalf("timer stopped while armed %d times, want exactly 1 (partner cancels the window)", got)
	}
	if ft.fire() {
		t.Fatal("timer still armed after the batch flushed")
	}
	if got := m.Batches.Load(); got != 1 {
		t.Fatalf("flushed %d batches, want the straggler and partner coalesced into 1", got)
	}
	if got := m.BatchedRows.Load(); got != 2 {
		t.Fatalf("batched %d rows, want 2", got)
	}
}

// TestMultiRowWaveSkipsTimer: a wave that is already a batch never arms
// the straggler timer — waiting on a clock would only tax its latency.
func TestMultiRowWaveSkipsTimer(t *testing.T) {
	frame, _, v2 := fixture(t)
	b, ft := clockedBatcher(t, nil)

	rows := [][]float64{frame.Row(0), frame.Row(1), frame.Row(2)}
	results, _, err := b.SubmitWave(context.Background(), v2, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(rows) {
		t.Fatalf("got %d results for %d rows", len(results), len(rows))
	}
	putResults(results)
	select {
	case <-ft.resets:
		t.Fatal("multi-row wave armed the straggler timer")
	default:
	}
}
