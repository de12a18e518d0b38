package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata")

// checkGolden compares got with testdata/name, rewriting the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s mismatch (rerun with -update to accept):\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// maskRuntime replaces the values of the ioserve_go_* runtime series, the
// only ones a test cannot pin.
func maskRuntime(body []byte) []byte {
	lines := strings.Split(string(body), "\n")
	for i, line := range lines {
		if name, _, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "ioserve_go_") {
			lines[i] = name + " <masked>"
		}
	}
	return []byte(strings.Join(lines, "\n"))
}

// TestMetricsExpositionGolden pins ioserve's whole /metrics body — the
// built-in series plus every collector cmd/ioserve registers except the
// drift controller (pinned in internal/drift) — from fixed observations,
// registered in the order cmd/ioserve registers them.
func TestMetricsExpositionGolden(t *testing.T) {
	svc := NewService(fixtureRegistry(t), Options{
		MaxBatch: 4, MaxDelay: time.Millisecond,
		TraceEvery: 2, TraceSlowAfter: time.Hour,
	})
	t.Cleanup(svc.Close)
	m := svc.Metrics()

	m.Requests.Add(12)
	m.Predictions.Add(40)
	m.CacheHits.Add(15)
	m.CacheMisses.Add(25)
	m.OoDFlagged.Add(3)
	m.Batches.Add(8)
	m.BatchedRows.Add(25)
	m.Errors.Add(1)
	m.DeadlineDropped.Add(2)
	m.PanicsRecovered.Add(1)
	m.LatencyNs.Add(987654)
	m.ReloadPolls.Add(6)
	m.ReloadApplied.Add(2)
	m.ReloadErrors.Add(1)
	m.VersionSwaps.Add(3)
	m.CacheInvalidated.Add(17)
	for _, s := range []struct {
		name              string
		req, pred, hit, o uint64
	}{{"theta", 9, 30, 10, 2}, {"cori", 3, 10, 5, 1}} {
		sm := m.System(s.name)
		sm.Requests.Add(s.req)
		sm.Predictions.Add(s.pred)
		sm.CacheHits.Add(s.hit)
		sm.CacheMisses.Add(s.pred - s.hit)
		sm.OoDFlagged.Add(s.o)
	}
	m.System("cori").Errors.Add(1)

	sh := m.Shadow(ShadowKey{System: "theta", Primary: 2, Target: 1, Role: "shadow"})
	sh.observe(0.25, 1234.5, true, false, 1500)
	sh.observe(0.125, 250.25, false, true, 2500)
	sh.observeDropped()
	sh.observeError()
	m.Shadow(ShadowKey{System: "theta", Primary: 2, Target: 3, Role: "canary"}).observe(0.5, 99.75, true, true, 4000)

	for _, d := range []time.Duration{40 * time.Microsecond, 3 * time.Millisecond, 3 * time.Millisecond, 2 * time.Second} {
		m.Latency.Observe(d)
	}
	var tm obs.StageTimings
	tm.CacheMisses = 2
	tm.Ns[obs.StageCacheLookup] = 20_000
	tm.Ns[obs.StageObserve] = 5_000
	tm.Ns[obs.StageQueueWait] = 300_000
	tm.Ns[obs.StageWaveAssemble] = 60_000
	tm.Ns[obs.StageEvaluate] = 1_200_000
	tm.Ns[obs.StageGuard] = 400_000
	tm.Ns[obs.StageFinalize] = 30_000
	m.ObserveStages(&tm)
	tm.Ns[obs.StageGuard] = 0
	m.ObserveStages(&tm)

	tr := svc.Tracer()
	for _, mark := range []func(*obs.Trace){
		func(t *obs.Trace) { t.Err = "boom" },
		func(t *obs.Trace) { t.Deadline = true },
		func(t *obs.Trace) { t.Shed = true },
		func(t *obs.Trace) { t.Timings.OoDFlagged = 1 },
		func(t *obs.Trace) { t.Timings.TotalNs = int64(2 * time.Hour) },
		nil, nil, nil,
	} {
		trace := tr.Start("theta", 1, time.Unix(0, 0))
		trace.Timings.TotalNs = int64(time.Millisecond)
		if mark != nil {
			mark(trace)
		}
		tr.Finish(trace)
	}

	m.RegisterCollector(obs.RuntimeFamilies)

	set := resilience.NewSet()
	m.RegisterCollector(func() []obs.PromFamily { return set.Families("ioserve") })
	gate := resilience.NewGate(resilience.GateConfig{MaxInflight: 2, HardLimit: 3})
	set.SetGate(gate)
	for i := 0; i < 4; i++ {
		gate.Admit(resilience.ClassPredict)
	}
	gate.Admit(resilience.ClassControl)
	gate.Release(3 * time.Millisecond)
	reload := set.NewBreaker("reload", resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	reload.Failure()
	reload.Failure()
	publish := set.NewBreaker("publish", resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	publish.Failure()
	publish.Success()

	specs, err := obs.ParseSLO("predict:p99=25ms,avail=99.9;control:avail=99")
	if err != nil {
		t.Fatal(err)
	}
	slo := obs.NewSLO(specs)
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	slo.Now = func() time.Time { return fixed }
	for _, o := range []struct {
		class  string
		status int
		d      time.Duration
	}{
		{"predict", 200, 3 * time.Millisecond},
		{"predict", 200, 40 * time.Millisecond},
		{"predict", 500, time.Millisecond},
		{"predict", 200, 2 * time.Millisecond},
		{"control", 200, time.Millisecond},
	} {
		slo.Observe(o.class, o.status, o.d)
	}
	m.RegisterCollector(func() []obs.PromFamily { return slo.Families("ioserve") })

	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden", maskRuntime(buf.Bytes()))
}
