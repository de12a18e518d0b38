package main

import (
	"bytes"
	"errors"
	"math"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/serve"
)

func TestStreamDeterministicPerSeed(t *testing.T) {
	w, err := findWorkload("fleet-dup16")
	if err != nil {
		t.Fatal(err)
	}
	a, err := buildStream(w, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildStream(w, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildStream(w, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.sched, b.sched) || !bytes.Equal(a.probe, b.probe) {
		t.Fatal("same seed gave a different schedule or probe")
	}
	same := func(x, y []request) bool {
		return slices.EqualFunc(x, y, func(p, q request) bool {
			return bytes.Equal(p.body, q.body) && slices.Equal(p.idx, q.idx) && slices.Equal(p.dup, q.dup)
		})
	}
	if !same(a.warm, b.warm) || !same(a.open, b.open) || !same(a.closed, b.closed) {
		t.Fatal("same seed gave different requests")
	}
	if same(a.open, c.open) || slices.Equal(a.sched, c.sched) {
		t.Fatal("different seeds gave the same open loop")
	}
}

// fakeClock advances only when told to; sleeping jumps to the wake time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestOpenLoopTimesFromScheduleUnderStall(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const ms = time.Millisecond
	sched := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms, 50 * ms, 60 * ms}
	send := func(i int) ([]byte, error) {
		if i == 2 {
			clk.advance(35 * ms) // the stall
		} else {
			clk.advance(ms)
		}
		return nil, nil
	}
	got, elapsed := drive(clk, clk.Now(), len(sched), sched, 1, send)
	// Request 2 ends at 55ms, so 3, 4 and 5 go out late and their latency
	// counts the wait from their scheduled time; 6 is back on schedule.
	wantLate := []time.Duration{0, 0, 0, 25 * ms, 16 * ms, 7 * ms, 0}
	wantLat := []time.Duration{ms, ms, 35 * ms, 26 * ms, 17 * ms, 8 * ms, ms}
	for i, s := range got {
		if s.late != wantLate[i] || s.lat != wantLat[i] {
			t.Errorf("request %d: late %v lat %v, want late %v lat %v", i, s.late, s.lat, wantLate[i], wantLat[i])
		}
	}
	if elapsed != 61*ms || got[6].end != 61*ms {
		t.Errorf("elapsed %v, last end %v, want 61ms", elapsed, got[6].end)
	}

	// Closed loop: no schedule, so nothing is late and latency is service.
	got, _ = drive(clk, clk.Now(), 3, nil, 1, send)
	for i, s := range got {
		want := ms
		if i == 2 {
			want = 35 * ms
		}
		if s.late != 0 || s.lat != want {
			t.Errorf("closed request %d: late %v lat %v, want 0 and %v", i, s.late, s.lat, want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100000, 99},
		{20, 50},
		{19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	var d []time.Duration
	for i := 1; i <= 1000; i++ {
		d = append(d, time.Duration(i))
	}
	if p := percentile(d, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", p)
	}
	if p := percentile(d, 50); p != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", p)
	}
}

func TestMeasureInputsCountsRepeatedRows(t *testing.T) {
	table := [][]float64{{1, 2}, {3, 4}, {1, 2.0000000000000004}}
	reqs := []request{{idx: []int{0, 1}}, {idx: []int{0, 2}}, {idx: []int{2, 2}}}
	st := measureInputs(reqs, table)
	// Row 0 repeats once and row 2 twice; row 2 differs from row 0 in the
	// last bit only and is not a duplicate of it.
	if st.requests != 3 || st.rows != 6 || st.dups != 3 {
		t.Fatalf("got %+v, want 3 requests, 6 rows, 3 duplicates", st)
	}
	if st.dupShare() != 0.5 || st.rowsPerReq() != 2 {
		t.Fatalf("dup share %v rows/request %v, want 0.5 and 2", st.dupShare(), st.rowsPerReq())
	}
}

func TestStreamDuplicateShares(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi float64
	}{
		{"fleet-unique16", 0, 0},
		{"fleet-dup16", 0.75, 0.85},
		{"replica-single", 0, 0},
	} {
		w, err := findWorkload(c.name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := buildStream(w, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		reqs := append(append([]request(nil), s.open...), s.closed...)
		st := measureInputs(reqs, s.table)
		flagged := 0
		for _, r := range reqs {
			for _, d := range r.dup {
				if d {
					flagged++
				}
			}
		}
		if flagged != st.dups {
			t.Errorf("%s: generator flagged %d duplicates, rows show %d", c.name, flagged, st.dups)
		}
		if share := st.dupShare(); share < c.lo || share > c.hi {
			t.Errorf("%s: duplicate share %v, want [%v, %v]", c.name, share, c.lo, c.hi)
		}
		if st.rowsPerReq() != float64(w.rowsPerReq) {
			t.Errorf("%s: %v rows per request, want %d", c.name, st.rowsPerReq(), w.rowsPerReq)
		}
	}
}

func TestTallyRejectsWrongAnswers(t *testing.T) {
	g := serve.Guard{EU: 0.1, AU: 0.2, ErrorSource: serve.SourceModeling}
	ref := &reference{logs: []float64{9, 8}, guards: []serve.Guard{g, g}, repeated: []bool{false, true}}
	req := request{idx: []int{0, 1}, dup: []bool{false, false}}
	answer := func(log0 float64, hit0, hit1 bool) []serve.PredictionResult {
		g0, g1 := g, g
		return []serve.PredictionResult{
			{Log10Throughput: log0, Throughput: math.Pow(10, log0), Guard: &g0, CacheHit: hit0},
			{Log10Throughput: 8, Throughput: math.Pow(10, 8), Guard: &g1, CacheHit: hit1},
		}
	}
	var tl tally
	if err := tl.verifyPredictions(ref, req, answer(9, false, true), nil); err != nil {
		t.Fatalf("a correct answer failed: %v", err)
	}
	if err := tl.verifyPredictions(ref, req, answer(math.Nextafter(9, 10), false, false), nil); err == nil {
		t.Error("a value one bit off passed")
	}
	if err := tl.verifyPredictions(ref, req, answer(9, true, false), nil); err == nil {
		t.Error("a cache hit on a row sent once passed")
	}
	due := []bool{false, true}
	if err := tl.verifyPredictions(ref, req, answer(9, false, true), due); err != nil {
		t.Errorf("a due hit failed: %v", err)
	}
	if err := tl.verifyPredictions(ref, req, answer(9, false, false), due); err == nil {
		t.Error("a miss on a row due as a hit passed")
	}
	tl.add(nil, func() error { return nil })
	tl.add(errTest, nil)
	tl.add(nil, func() error { return errTest })
	if tl.attempted != 3 || tl.failed != 1 || tl.incorrect != 1 || tl.errorShare() != 2.0/3 {
		t.Errorf("tally %+v, error share %v", tl, tl.errorShare())
	}
}

var errTest = errors.New("injected")

func TestSelfTimeSubtractsChildrenAndRemote(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "route", Start: 0, End: 100},
		// Two overlapping hops cover 10..60 of the route.
		{ID: 1, Parent: 0, Name: "hop", Start: 10, End: 50, Remote: 30},
		{ID: 2, Parent: 0, Name: "hop", Start: 20, End: 60, Remote: 25},
	}
	st := selfTimes(spans)
	if got := st["route"]; got.selfNs != 50 || got.n != 1 {
		t.Errorf("route self %+v, want 50 ns over 1 span", got)
	}
	if got := st["hop"]; got.selfNs != (40-30)+(40-25) || got.n != 2 {
		t.Errorf("hop self %+v, want 25 ns over 2 spans", got)
	}
}

func TestDueHitsFollowAnswersAndPhases(t *testing.T) {
	const ms = time.Millisecond
	// Phase one: request 0 sends rows 0 and 1 and is answered at 5 ms;
	// request 1, sent at 3 ms, repeats row 0 while it is still in flight,
	// and row 2 twice; request 2, sent at 6 ms, repeats row 1 after its
	// answer came back.
	one := phaseRun{
		reqs: []request{{idx: []int{0, 1}}, {idx: []int{0, 2, 2}}, {idx: []int{1, 3}}},
		samples: []sample{
			{lat: 5 * ms, end: 5 * ms},
			{late: 1 * ms, lat: 6 * ms, end: 8 * ms}, // due at 2 ms, sent at 3 ms
			{lat: 1 * ms, end: 7 * ms},
		},
	}
	// Phase two repeats row 3, answered in phase one, and row 4 that was
	// only in a failed request.
	two := phaseRun{
		reqs:    []request{{idx: []int{4}}, {idx: []int{3, 4}}},
		samples: []sample{{lat: ms, end: ms, err: errTest}, {lat: ms, end: 3 * ms}},
	}
	got := dueHits([]phaseRun{one, two})
	want := [][][]bool{
		{{false, false}, {false, false, true}, {true, false}},
		{{false}, {true, false}},
	}
	for p := range want {
		for j := range want[p] {
			if !slices.Equal(got[p][j], want[p][j]) {
				t.Errorf("phase %d request %d: due %v, want %v", p, j, got[p][j], want[p][j])
			}
		}
	}
}

func TestCacheReplayCoalescesInRequestDuplicates(t *testing.T) {
	mv := &serve.ModelVersion{System: benchSystem, Version: 1}
	s := &stream{table: [][]float64{{1}, {2}, {3}}}
	g := serve.Guard{}
	ref := &reference{logs: []float64{1, 2, 3}, guards: []serve.Guard{g, g, g}}
	reqs := []request{{idx: []int{0, 1, 0}}, {idx: []int{1, 2, 2}}}
	res := cacheReplay(newTracer(), mv, s, reqs, ref)
	// Request 0 evaluates rows 0 and 1 and its second row 0 rides along;
	// request 1 hits row 1 and evaluates row 2 once.
	if res.lookups != 6 || res.hits != 3 {
		t.Errorf("%d hits of %d lookups, want 3 of 6", res.hits, res.lookups)
	}
	if len(res.misses) != 2 || len(res.misses[0]) != 2 || len(res.misses[1]) != 1 {
		t.Errorf("miss batches %v, want two of 2 and 1 rows", res.misses)
	}
}

// The in-process replays must run the pipeline the fleet runs, so
// serveOptions has to match ioserve's flag defaults.
func TestServeOptionsMatchIoserveDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ioserve")
	}
	bin := filepath.Join(t.TempDir(), "ioserve")
	if out, err := exec.Command("go", "build", "-o", bin, "iotaxo/cmd/ioserve").CombinedOutput(); err != nil {
		t.Fatalf("building ioserve: %v\n%s", err, out)
	}
	help, err := exec.Command(bin, "-help").CombinedOutput()
	if err != nil {
		t.Fatalf("ioserve -help: %v\n%s", err, help)
	}
	defaults := map[string]string{}
	var name string
	for _, line := range strings.Split(string(help), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], "-") {
			name = f[0][1:]
		}
		if _, rest, ok := strings.Cut(line, "(default "); ok && name != "" {
			defaults[name] = strings.TrimSuffix(strings.TrimSpace(rest), ")")
		}
	}
	for flag, want := range map[string]string{
		"max-batch": strconv.Itoa(serveOptions.MaxBatch),
		"max-delay": serveOptions.MaxDelay.String(),
		"workers":   strconv.Itoa(serveOptions.Workers),
		"cache":     strconv.Itoa(serveOptions.CacheSize),
	} {
		if got := defaults[flag]; got != want {
			t.Errorf("ioserve -%s defaults to %q, serveOptions has %q", flag, got, want)
		}
	}
}

func TestCalibrationMeasuresCPUTime(t *testing.T) {
	start := time.Now()
	c := startCalibration(time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	samples, err := c.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 5 {
		t.Fatalf("%d exchanges in 30ms at one per ms", len(samples))
	}
	for _, x := range samples {
		if x.ns <= 0 {
			t.Fatalf("an exchange took %v ns of CPU", x.ns)
		}
	}
	if ns := calibNsBetween(samples, start, time.Now()); ns <= 0 || math.IsNaN(ns) {
		t.Errorf("median exchange %v ns", ns)
	}
	if ns := calibNsBetween(samples, start.Add(-time.Second), start); !math.IsNaN(ns) {
		t.Errorf("median of no exchanges %v, want NaN", ns)
	}
}
