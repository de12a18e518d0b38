// Command fleetbench is the repository's end-to-end benchmark. It trains a
// small model registry from the seed, starts a real fleet (iorouter over two
// ioserve replicas, or one ioserve) on loopback with default flags, replays
// a seeded workload against it, checks every answer against the reference
// models, and prints the metrics. With -trace 1 it instead replays the same
// request stream through each layer's public entry points and prints
// per-layer costs.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash fleetbench/run.sh --workload fleet-dup16 --seed 3 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are notes for
// a reader: per-window figures, sample counts, generator lateness, the
// measured duplicate share and rows per request, error_share, and, with
// -trace 1, the cross-check against the replicas' own timings.
//
// End-to-end metrics (-trace 0): setup_s, the user plus system CPU time
// the fleet processes spend from launch until the first predict succeeds
// through the entry point (median of nine launches); cpu_us_per_row, the
// fleet processes' CPU time over the open loop per row served (median of
// the windows); and rss_mib, the summed VmHWM. Both CPU figures are scaled
// to a reference host speed by calibration exchanges the benchmark runs
// alongside (see calib.go): on a shared host the raw CPU time moves with
// the neighbours' load by a quarter within minutes, set-up wall time more
// still. The raw figures and the set-up wall time are printed as notes. So
// are the other wall-clock figures, which stay out of the result line:
// open-loop latency timed from each request's scheduled send (p50 and p99
// with sample counts) and closed-loop rows per second; their run-to-run
// spread follows the host's load, well past any bound a regression gate
// could use. error_share is failed/attempted in the result line.
//
// Per-layer metrics (-trace 1) and the end-to-end metrics each should move
// (cpu means cpu_us_per_row):
//
//	fleet.*      Route self time, hop cost, sub-requests, allocations,
//	             locality: cpu, rows per second and the
//	             open-loop p50 on fleet-unique16 and fleet-dup16 (most on
//	             fleet-dup16); subreqs_per_req moves the open-loop p99; on
//	             replica-single they price a one-replica router that the
//	             end-to-end run does not have, and move nothing
//	serve.*      replica HTTP decode and encode, allocations, bytes per row:
//	             cpu and the open-loop p50 on all three, most on fleet-dup16
//	cache.*      lookup cost and hit ratio: cpu on fleet-dup16; pure
//	             overhead on fleet-unique16
//	batcher.*    queue wait, straggler assembly, rows per flush: the
//	             open-loop p50 on replica-single, nothing on the 16-row
//	             workloads
//	gbt., dataset., uq., guard.*
//	             evaluation kernels: cpu and rows per second on
//	             fleet-unique16, about nothing on fleet-dup16
//	proc.*       CPU per row of the router and replica processes, scaled as
//	             cpu_us_per_row: its split (with the stand-in router on
//	             replica-single)
//	trace.overhead_pct
//	             traced against untraced evaluation passes
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"iotaxo/internal/serve"
	"iotaxo/internal/system"
)

// fixtureJobs sizes the registry fixture's training set. The models keep
// the bootstrap's default shapes (80 trees of depth 7, three ensemble
// members), so serving costs what it costs in a bootstrapped ioserve.
const fixtureJobs = 2000

// setupRuns is how many times a run launches the fleet to time set-up.
const setupRuns = 9

// traceRequests caps the requests the traced run replays.
const traceRequests = 600

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	w      workload
	seed   uint64
	binDir string
	runDir string
	regDir string
	conns  int
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fleet-unique16, fleet-dup16 or replica-single")
		seed    = flag.Uint64("seed", 1, "seed for the registry fixture and the request stream")
		seconds = flag.Float64("seconds", 10, "length of the measured phases in seconds")
		trace   = flag.Int("trace", 0, "1 replays the stream layer by layer and prints per-layer metrics")
		binDir  = flag.String("bin", "", "directory holding the ioserve and iorouter binaries")
		workDir = flag.String("work", ".bench_build/fleetbench", "directory for the registry, logs and spans")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *binDir, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, binDir, workDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if binDir == "" {
		return errors.New("-bin is required")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg := config{w: w, seed: seed, binDir: binDir, conns: runtime.NumCPU()}
	cfg.runDir = filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	cfg.regDir = filepath.Join(cfg.runDir, "registry")
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return err
	}

	if err := buildRegistry(seed, cfg.regDir); err != nil {
		return err
	}
	reg, err := serve.LoadRegistry(cfg.regDir)
	if err != nil {
		return err
	}
	mv, err := reg.Get(benchSystem, 0)
	if err != nil {
		return err
	}
	s, err := buildStream(w, seed, seconds)
	if err != nil {
		return err
	}
	ref, err := newReference(mv, s)
	if err != nil {
		return err
	}
	fmt.Printf("# workload %s seed %d seconds %g connections %d\n", w.name, seed, seconds, cfg.conns)
	fmt.Printf("# inputs: %v\n", measureInputs(append(append([]request(nil), s.open...), s.closed...), s.table))

	var res *result
	if trace == 0 {
		res, err = endToEnd(cfg, s, ref)
	} else {
		res, err = traced(cfg, reg, mv, s, ref)
	}
	if err != nil {
		return fmt.Errorf("%w (fleet logs in %s)", err, cfg.runDir)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return os.RemoveAll(cfg.runDir)
}

// buildRegistry trains the fixture bundle the way ioserve -bootstrap does,
// for one system and one version, and saves it in the registry layout.
func buildRegistry(seed uint64, dir string) error {
	sc := system.ThetaLike(fixtureJobs)
	sc.Seed = seed
	m, err := system.Generate(sc)
	if err != nil {
		return err
	}
	frame, err := m.Frame()
	if err != nil {
		return err
	}
	bc := serve.DefaultBootstrap()
	bc.Jobs, bc.Versions, bc.Seed = fixtureJobs, 1, seed
	mv, err := serve.BuildVersion(benchSystem, 1, frame, bc)
	if err != nil {
		return err
	}
	return serve.SaveVersion(dir, mv)
}

// Each measured phase is cut into windows and a metric reports the median
// over its windows, so a burst of interference from outside the fleet that
// lasts less than half the phase moves some windows but not the result.
const phaseWindows = 8

// pauseGC collects garbage and then stops the collector until the returned
// function is called, so the load generator's own collections do not take
// CPU from the fleet during set-up or a measured phase. The phases allocate little
// beyond the response bodies they keep.
func pauseGC() (restore func()) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// openRun is the warm-up and open-loop phase of one fleet, unchecked.
type openRun struct {
	warm, open []sample
	elapsed    time.Duration
	// Window k holds the open requests groups[k] to groups[k+1]-1 and
	// starts at bounds[k] from start; cpu[k] is the fleet's CPU time per
	// role over it.
	start  time.Time
	groups []int
	bounds []time.Duration
	cpu    []map[string]int64
}

// openWindows splits n scheduled requests into phaseWindows contiguous
// groups, returning each group's first index and then n.
func openWindows(n int) []int {
	k := min(phaseWindows, n)
	out := make([]int, k+1)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// openLoop runs the warm-up and then the open-loop phase against a running
// fleet, reading the fleet's CPU time at each window boundary.
func openLoop(cfg config, f *fleetProcs, s *stream, sender *httpSender) (*openRun, error) {
	r := &openRun{groups: openWindows(len(s.open))}
	r.warm, _ = drive(wallClock{}, time.Now(), len(s.warm), nil, cfg.conns, sender.sendAll(s.warm))
	nw := len(r.groups) - 1
	snaps := make([]map[string]int64, nw+1)
	errs := make([]error, nw+1)
	r.bounds = make([]time.Duration, nw)
	for k := range nw {
		r.bounds[k] = s.sched[r.groups[k]]
	}
	start := time.Now()
	r.start = start
	snaps[0], errs[0] = f.cpuByRole()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k < nw; k++ {
			wallClock{}.SleepUntil(start.Add(r.bounds[k]))
			snaps[k], errs[k] = f.cpuByRole()
		}
	}()
	r.open, r.elapsed = drive(wallClock{}, start, len(s.open), s.sched, cfg.conns, sender.sendAll(s.open))
	wg.Wait()
	snaps[nw], errs[nw] = f.cpuByRole()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for k := range nw {
		d := map[string]int64{}
		for role, ns := range snaps[k+1] {
			d[role] = ns - snaps[k][role]
		}
		r.cpu = append(r.cpu, d)
	}
	return r, nil
}

// window is one open-loop window's figures.
type window struct {
	p50       time.Duration
	cpuPerRow float64 // us, as measured
	// calibNs is the median CPU time of the calibration exchanges run in
	// the window.
	calibNs float64
}

// scaled is the window's CPU per row at the reference host speed.
func (w window) scaled() float64 { return w.cpuPerRow * calibRefNs / w.calibNs }

// windows summarizes each open-loop window: latency over the requests
// scheduled in it, CPU per row over the rows completed in it, and the
// calibration exchanges run in it.
func (r *openRun) windows(reqs []request, calib []calibSample) []window {
	var out []window
	for k := range r.cpu {
		var lats []time.Duration
		for i := r.groups[k]; i < r.groups[k+1]; i++ {
			if r.open[i].err == nil {
				lats = append(lats, r.open[i].lat)
			}
		}
		rows := 0
		for i, smp := range r.open {
			if smp.err == nil && smp.end >= r.bounds[k] && (k+1 == len(r.bounds) || smp.end < r.bounds[k+1]) {
				rows += len(reqs[i].idx)
			}
		}
		var cpu int64
		for _, ns := range r.cpu[k] {
			cpu += ns
		}
		end := r.elapsed
		if k+1 < len(r.bounds) {
			end = r.bounds[k+1]
		}
		out = append(out, window{
			p50:       percentile(sortedDurations(lats), 50),
			cpuPerRow: float64(cpu) / 1e3 / float64(rows),
			calibNs:   calibNsBetween(calib, r.start.Add(r.bounds[k]), r.start.Add(end)),
		})
	}
	return out
}

// closedRates is rows completed per second in each of phaseWindows equal
// slices of the closed loop.
func closedRates(reqs []request, samples []sample, elapsed time.Duration) []float64 {
	slice := elapsed / phaseWindows
	rows := make([]int, phaseWindows)
	for i, smp := range samples {
		if smp.err == nil {
			rows[min(int(smp.end/slice), phaseWindows-1)] += len(reqs[i].idx)
		}
	}
	out := make([]float64, phaseWindows)
	for k, n := range rows {
		out[k] = float64(n) / slice.Seconds()
	}
	return out
}

// checkPhases checks every answer of phases that ran one after another.
func checkPhases(t *tally, ref *reference, phases ...phaseRun) {
	due := dueHits(phases)
	for p, ph := range phases {
		for i, smp := range ph.samples {
			t.add(smp.err, func() error { return t.verify(ref, ph.reqs[i], smp.body, due[p][i]) })
		}
	}
}

func rowsServed(reqs []request, samples []sample) int {
	n := 0
	for i, smp := range samples {
		if smp.err == nil {
			n += len(reqs[i].idx)
		}
	}
	return n
}

// endToEnd times set-up and measures the open and closed loops. Set-up is
// timed on setupRuns launches, about half before the measured phases (the
// last of those is the fleet they run on) and the rest after them, so
// interference from outside that lasts only part of the run moves fewer
// launches than it takes to shift the median. Calibration exchanges run
// all along, so each launch and each open-loop window is scaled by the
// host's speed while it ran.
func endToEnd(cfg config, s *stream, ref *reference) (*result, error) {
	restoreGC := pauseGC()
	defer restoreGC()
	finishCalib := sync.OnceValues(startCalibration(calibPeriod).finish)
	defer finishCalib()
	var setupCPU, setupWall []time.Duration
	var setupAt []time.Time
	timedLaunch := func() (*fleetProcs, error) {
		at := time.Now()
		f, c, err := launch(fleetShape(cfg.w), cfg.binDir, cfg.regDir, cfg.runDir, s.probe)
		if err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, time.Duration(c.cpuNs))
		setupWall = append(setupWall, c.wall)
		setupAt = append(setupAt, at)
		return f, nil
	}
	relaunch := func(n int) error {
		for range n {
			f, err := timedLaunch()
			if err != nil {
				return err
			}
			if err := f.stop(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := relaunch(setupRuns / 2); err != nil {
		return nil, err
	}
	f, err := timedLaunch()
	if err != nil {
		return nil, err
	}
	sender := newHTTPSender(f.entry, cfg.conns)
	or, err := openLoop(cfg, f, s, sender)
	if err != nil {
		f.stop()
		return nil, err
	}
	closed, closedDur := drive(wallClock{}, time.Now(), len(s.closed), nil, cfg.conns, sender.sendAll(s.closed))
	rssKiB, rssErr := f.peakRSSKiB()
	sender.close()
	if err := errors.Join(rssErr, f.stop()); err != nil {
		return nil, err
	}
	if err := relaunch(setupRuns - len(setupCPU)); err != nil {
		return nil, err
	}
	calibSamples, err := finishCalib()
	if err != nil {
		return nil, err
	}
	restoreGC()

	var t tally
	checkPhases(&t, ref, phaseRun{s.warm, or.warm}, phaseRun{s.open, or.open}, phaseRun{s.closed, closed})
	if t.failed+t.incorrect == t.attempted {
		return nil, fmt.Errorf("no request succeeded: %s", t.firstProblem)
	}

	var p50s, cpus, scaled, winCalib []float64
	for _, w := range or.windows(s.open, calibSamples) {
		p50s = append(p50s, ms(w.p50))
		cpus = append(cpus, w.cpuPerRow)
		scaled = append(scaled, w.scaled())
		winCalib = append(winCalib, w.calibNs)
	}
	// A launch is scaled by the exchanges that started while it ran, or in
	// its first two periods if it was shorter.
	var setupCalib, setupScaled []float64
	for i, at := range setupAt {
		c := calibNsBetween(calibSamples, at, at.Add(max(setupWall[i], 2*calibPeriod)))
		setupCalib = append(setupCalib, c)
		setupScaled = append(setupScaled, setupCPU[i].Seconds()*calibRefNs/c)
	}
	var lates, lats []time.Duration
	for _, smp := range or.open {
		lates = append(lates, smp.late)
		if smp.err == nil {
			lats = append(lats, smp.lat)
		}
	}
	lates, lats = sortedDurations(lates), sortedDurations(lats)
	tail := tailPercentile(len(lats))
	rates := closedRates(s.closed, closed, closedDur)

	fmt.Printf("# set-up by launch: fleet CPU ms as measured %.1f; calibration exchange us %.0f; wall ms %.1f\n",
		msAll(setupCPU), scaleAll(setupCalib, 1e-3), msAll(setupWall))
	fmt.Printf("# set-up as measured (medians of launches): fleet CPU %.4fs, wall %.4fs\n",
		medianFloat(msAll(setupCPU))/1e3, medianFloat(msAll(setupWall))/1e3)
	fmt.Printf("# open loop: %d requests at %g req/s over %.2fs\n", len(s.open), cfg.w.openRate, or.elapsed.Seconds())
	fmt.Printf("# open loop by window: p50 ms %.3f; fleet cpu us/row as measured %.1f; calibration exchange us %.0f\n",
		p50s, cpus, scaleAll(winCalib, 1e-3))
	fmt.Printf("# fleet cpu as measured: %.1f us/row (median of windows)\n", medianFloat(cpus))
	fmt.Printf("# open-loop latency from scheduled send: p50 %.3fms (median of windows), p%g %.3fms of %d samples\n",
		medianFloat(p50s), tail, ms(percentile(lats, tail)), len(lats))
	fmt.Printf("# generator lateness (send minus schedule): p50 %.3fms p%g %.3fms max %.3fms\n",
		ms(percentile(lates, 50)), tail, ms(percentile(lates, tail)), ms(lates[len(lates)-1]))
	fmt.Printf("# closed loop: %d requests, %d rows over %.2fs with %d connections; rows/s by window %.0f\n",
		len(s.closed), rowsServed(s.closed, closed), closedDur.Seconds(), cfg.conns, rates)
	fmt.Printf("# closed-loop throughput: %.0f rows/s (median of windows)\n", medianFloat(rates))
	fmt.Printf("# cache hits: %d of %d rows; %d replayed rows, %d of them due as hits\n", t.hits, t.rows, t.dupRows, t.dueHits)
	fmt.Printf("# error_share %.4f: %d failed, %d incorrect of %d attempted\n", t.errorShare(), t.failed, t.incorrect, t.attempted)
	if t.firstProblem != "" {
		fmt.Printf("# first problem: %s\n", t.firstProblem)
	}

	return &result{
		Correct:   t.incorrect == 0,
		Attempted: t.attempted,
		Failed:    t.failed + t.incorrect,
		Metrics: map[string]metric{
			"setup_s":        {medianFloat(setupScaled), "s"},
			"cpu_us_per_row": {medianFloat(scaled), "us"},
			"rss_mib":        {float64(rssKiB) / 1024, "MiB"},
		},
	}, nil
}

// traced runs the per-layer measurements. A first fleet takes the untraced
// open loop, for the process CPU split and the replicas' rows per flush. A
// second, fresh fleet serves the same requests one at a time through an
// in-process fleet.Router; then the serve HTTP layer, cache, batcher and
// evaluation kernels replay them in-process. Both fleets have a router: on
// replica-single, which is measured without one, a one-replica iorouter
// stands in front of the replica, so fleet.* and proc.router_cpu_us_per_row
// give what a router would add there.
func traced(cfg config, reg *serve.Registry, mv *serve.ModelVersion, s *stream, ref *reference) (*result, error) {
	var t tally
	sh := fleetShape(cfg.w)
	sh.router = true

	fa, _, err := launch(sh, cfg.binDir, cfg.regDir, cfg.runDir, s.probe)
	if err != nil {
		return nil, err
	}
	sender := newHTTPSender(fa.entry, cfg.conns)
	m0, err := fa.scrape()
	var or *openRun
	var calibSamples []calibSample
	if err == nil {
		restoreGC := pauseGC()
		calib := startCalibration(calibPeriod)
		or, err = openLoop(cfg, fa, s, sender)
		var cerr error
		calibSamples, cerr = calib.finish()
		err = errors.Join(err, cerr)
		restoreGC()
	}
	var m1 map[string]float64
	if err == nil {
		m1, err = fa.scrape()
	}
	sender.close()
	if err := errors.Join(err, fa.stop()); err != nil {
		return nil, err
	}
	checkPhases(&t, ref, phaseRun{s.warm, or.warm}, phaseRun{s.open, or.open})
	// The process split is scaled to the reference speed as
	// cpu_us_per_row is, by the calibration over the whole open loop.
	openRows := float64(rowsServed(s.open, or.open)) * calibNsBetween(calibSamples, or.start, or.start.Add(or.elapsed)) / calibRefNs
	openCPU := map[string]int64{}
	for _, c := range or.cpu {
		for role, ns := range c {
			openCPU[role] += ns
		}
	}

	reqs := s.open[:min(len(s.open), traceRequests)]
	tr := newTracer()
	fb, _, err := launch(sh, cfg.binDir, cfg.regDir, cfg.runDir, s.probe)
	if err != nil {
		return nil, err
	}
	var urls []string
	for _, p := range fb.replicas() {
		urls = append(urls, p.url)
	}
	n0, err := fb.scrape()
	var fr *fleetResult
	if err == nil {
		fr, err = fleetReplay(tr, urls, reqs, s, ref)
	}
	var n1 map[string]float64
	if err == nil {
		n1, err = fb.scrape()
	}
	if err := errors.Join(err, fb.stop()); err != nil {
		return nil, err
	}
	t.merge(fr.tally)

	// Replicas serve the router's owner sub-requests, so those are what the
	// serve-side layers replay.
	layerReqs, err := fr.subRequests(s)
	if err != nil {
		return nil, err
	}
	hr, err := httpReplay(tr, reg, s, layerReqs, ref)
	if err != nil {
		return nil, err
	}
	t.merge(hr.tally)
	cr := cacheReplay(tr, mv, s, layerReqs, ref)
	br, err := batcherReplay(tr, mv, cr.misses)
	if err != nil {
		return nil, err
	}
	er, err := evalReplay(tr, mv, cr.misses)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(filepath.Dir(cfg.runDir), fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.name, cfg.seed))); err != nil {
		return nil, err
	}
	st := selfTimes(tr.spans)

	perReq := func(name string) float64 { return float64(st[name].selfNs) / float64(max(st[name].n, 1)) }
	perRow := func(name string) float64 { return float64(st[name].selfNs) / float64(max(er.rows*er.passes, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	delta := func(a, b map[string]float64, key string) float64 { return b[key] - a[key] }

	mx := map[string]metric{
		"fleet.route_self_us":         {perReq("fleet.route") / 1e3, "us"},
		"fleet.hop_us":                {perReq("fleet.hop") / 1e3, "us"},
		"fleet.subreqs_per_req":       {ratio(float64(st["fleet.hop"].n), float64(st["fleet.route"].n)), "count"},
		"fleet.allocs_per_req":        {fr.allocs, "count"},
		"fleet.locality":              {ratio(float64(fr.tally.hits), float64(fr.tally.dupRows)), "ratio"},
		"serve.http_self_us":          {(perReq("serve.http") - perReq("serve.request")) / 1e3, "us"},
		"serve.http_allocs_per_req":   {hr.allocs, "count"},
		"serve.bytes_per_row":         {ratio(float64(hr.bytes), float64(hr.rows)), "B"},
		"cache.lookup_ns_per_row":     {ratio(float64(st["cache.lookup"].selfNs), float64(cr.lookups)), "ns"},
		"cache.hit_ratio":             {ratio(float64(cr.hits), float64(cr.lookups)), "ratio"},
		"batcher.queue_wait_us":       {ratio(float64(br.queueNs), float64(br.waves)) / 1e3, "us"},
		"batcher.assemble_us":         {ratio(float64(br.assembleNs), float64(br.waves)) / 1e3, "us"},
		"batcher.rows_per_flush":      {ratio(delta(m0, m1, "ioserve_batched_rows_total"), delta(m0, m1, "ioserve_batches_total")), "count"},
		"gbt.flat_ns_per_row":         {perRow("gbt.flat"), "ns"},
		"dataset.scale_ns_per_row":    {perRow("dataset.scale"), "ns"},
		"uq.ensemble_ns_per_row":      {perRow("uq.ensemble"), "ns"},
		"uq.allocs_per_batch":         {er.uqAllocs, "count"},
		"guard.diagnose_ns_per_row":   {perRow("guard.diagnose"), "ns"},
		"proc.router_cpu_us_per_row":  {float64(openCPU["router"]) / 1e3 / openRows, "us"},
		"proc.replica_cpu_us_per_row": {float64(openCPU["replica"]) / 1e3 / openRows, "us"},
		"trace.overhead_pct":          {100 * (er.traced.Seconds() - er.untraced.Seconds()) / er.untraced.Seconds(), "%"},
	}

	fmt.Printf("# traced replay: %d requests, %d at the replicas; %d cache-miss rows in %d waves\n", len(reqs), len(layerReqs), er.rows, br.waves)
	fmt.Printf("# fleet replay: %d cache hits for %d replayed rows, all due as hits\n", fr.tally.hits, fr.tally.dupRows)
	fmt.Printf("# trace overhead: evaluation passes take %.1fms untraced, %.1fms traced (medians of %d)\n", ms(er.untraced), ms(er.traced), er.passes)
	crossCheck(fr.serverSide(), n0, n1, br, er, st)
	fmt.Printf("# error_share %.4f: %d failed, %d incorrect of %d attempted\n", t.errorShare(), t.failed, t.incorrect, t.attempted)
	if t.firstProblem != "" {
		fmt.Printf("# first problem: %s\n", t.firstProblem)
	}
	return &result{Correct: t.incorrect == 0, Attempted: t.attempted, Failed: t.failed + t.incorrect, Metrics: mx}, nil
}

// crossCheck compares the in-process batcher and evaluation numbers with
// what the replicas reported for the same requests, both in each response's
// server_timings and in their /metrics stage histograms, and flags any pair
// that differs by more than a factor of two.
func crossCheck(ss serverSide, m0, m1 map[string]float64, br *batcherResult, er *evalResult, st map[string]layerTime) {
	stage := func(name string) (sumNs, count float64) {
		key := fmt.Sprintf("ioserve_stage_latency_seconds_%%s{stage=%q}", name)
		return 1e9 * (m1[fmt.Sprintf(key, "sum")] - m0[fmt.Sprintf(key, "sum")]),
			m1[fmt.Sprintf(key, "count")] - m0[fmt.Sprintf(key, "count")]
	}
	batchedRows := m1["ioserve_batched_rows_total"] - m0["ioserve_batched_rows_total"]
	div := func(a, b float64) float64 {
		if b == 0 {
			return math.NaN()
		}
		return a / b
	}
	kernels := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += st[n].selfNs
		}
		return div(float64(ns), float64(er.rows*er.passes))
	}
	qSum, qN := stage("queue_wait")
	aSum, aN := stage("wave_assemble")
	eSum, _ := stage("evaluate")
	gSum, _ := stage("guard")
	rows := []struct {
		what                  string
		inproc, timings, hist float64
	}{
		{"queue wait per wave (us)", div(float64(br.queueNs), float64(br.waves)) / 1e3, div(float64(ss.queueNs), float64(ss.waves)) / 1e3, div(qSum, qN) / 1e3},
		{"wave assemble per wave (us)", div(float64(br.assembleNs), float64(br.waves)) / 1e3, div(float64(ss.assembleNs), float64(ss.waves)) / 1e3, div(aSum, aN) / 1e3},
		{"evaluate per row (ns)", kernels("gbt.flat", "dataset.scale", "uq.ensemble", "guard.diagnose"), div(float64(ss.evaluateNs), float64(ss.rows)), div(eSum, batchedRows)},
		{"guard per row (ns)", kernels("dataset.scale", "uq.ensemble", "guard.diagnose"), div(float64(ss.guardNs), float64(ss.rows)), div(gSum, batchedRows)},
	}
	agree := func(a, b float64) string {
		if math.IsNaN(a) || math.IsNaN(b) {
			return "n/a"
		}
		if r := a / b; r < 0.5 || r > 2 {
			return "DISAGREE"
		}
		return "agree"
	}
	for _, r := range rows {
		fmt.Printf("# cross-check %s: in-process %.1f, server_timings %.1f (%s), /metrics %.1f (%s)\n",
			r.what, r.inproc, r.timings, agree(r.inproc, r.timings), r.hist, agree(r.inproc, r.hist))
	}
}
