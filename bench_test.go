package iotaxo

// Benchmark harness: one benchmark per figure/table of the paper's
// evaluation. Each benchmark regenerates its experiment end to end
// (workload, models, litmus test) on a bench-scale dataset and reports the
// headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Dataset generation happens once, outside
// the timer. Absolute values come from the simulated substrate; the shapes
// are asserted in the package tests and recorded in EXPERIMENTS.md.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/core"
	"iotaxo/internal/experiments"
	"iotaxo/internal/fleet"
	"iotaxo/internal/gbt"
	"iotaxo/internal/serve"
)

// benchJobs is the dataset size used by the benchmarks. Large enough for
// stable statistics, small enough for a laptop benchmark run.
const benchJobs = 8000

var (
	benchOnce  sync.Once
	benchTheta *Frame
	benchCori  *Frame
	benchErr   error
)

func benchFrames(b *testing.B) (*Frame, *Frame) {
	b.Helper()
	benchOnce.Do(func() {
		benchTheta, benchErr = Generate(ThetaLike(benchJobs))
		if benchErr != nil {
			return
		}
		benchCori, benchErr = Generate(CoriLike(benchJobs))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTheta, benchCori
}

// benchScale keeps model budgets bench-sized.
func benchScale() experiments.Scale {
	sc := experiments.DefaultScale()
	p := gbt.DefaultParams()
	p.NumTrees = 150
	p.MaxDepth = 9
	p.LearningRate = 0.08
	p.MinChildWeight = 5
	sc.TunedParams = p
	return sc
}

// render draws the result once so benchmarks exercise the full path.
type renderer interface{ Render(w io.Writer) error }

func renderOnce(b *testing.B, r renderer) {
	b.Helper()
	if err := r.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig1a(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1a(theta, benchScale(),
			[]int{16, 64, 256}, []int{4, 8, 14})
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.BestErr, "best_err_%")
		b.ReportMetric(100*res.DefaultErr, "default_err_%")
	}
}

func BenchmarkFig1b(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1b(theta)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(float64(len(res.Apps)), "apps")
	}
}

func BenchmarkFig1c(b *testing.B) {
	_, cori := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1c(cori)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(float64(res.TotalPairs), "pairs")
	}
}

func BenchmarkFig1d(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1d(theta, benchScale(), 0.7)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.PreDeployPct, "pre_deploy_err_%")
		b.ReportMetric(100*res.PostDeployPct, "post_deploy_err_%")
	}
}

func BenchmarkFig2(b *testing.B) {
	_, cori := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(cori, benchScale(), experiments.SmallNAS())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.BestPct, "best_nas_err_%")
		b.ReportMetric(100*res.FloorPct, "floor_%")
	}
}

func BenchmarkFig3(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(theta, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		for _, row := range res.Rows {
			if row.Features == "POSIX" {
				b.ReportMetric(100*row.TestPct, "posix_test_err_%")
			}
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	_, cori := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(cori, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.BaselinePct, "baseline_err_%")
		b.ReportMetric(100*res.TimePct, "with_time_err_%")
		if res.LMTPct != nil {
			b.ReportMetric(100**res.LMTPct, "with_lmt_err_%")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(theta, benchScale(), experiments.SmallNAS())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(res.Summary.MedianAU, "median_AU")
		b.ReportMetric(res.Summary.MedianEU, "median_EU")
	}
}

func BenchmarkFig6(b *testing.B) {
	_, cori := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cori)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.Noise.Bound68Pct, "noise_68_%")
		b.ReportMetric(res.TFitNu, "t_fit_nu")
	}
}

func BenchmarkFig7(b *testing.B) {
	theta, _ := benchFrames(b)
	cfg := FastConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7("theta-like", theta, cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.Result.Breakdown.BaselinePct, "baseline_err_%")
		b.ReportMetric(100*res.Result.Breakdown.Aleatory, "aleatory_share_%")
	}
}

func BenchmarkTableT1(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.T1(theta)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(100*res.Floor.Fraction, "dup_%")
		b.ReportMetric(100*res.Floor.FloorPct, "floor_%")
	}
}

func BenchmarkTableT2(b *testing.B) {
	// T2 (the OoD attribution numbers) is produced by the Fig 5 pipeline;
	// this benchmark isolates the attribution given precomputed ensemble
	// outputs by running the NAS once outside the timer.
	theta, _ := benchFrames(b)
	res, err := experiments.Fig5(theta, benchScale(), experiments.SmallNAS())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AttributeOoD(res.Preds, res.AbsErrs, res.OoD.Threshold, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.OoD.FracOoD, "ood_jobs_%")
	b.ReportMetric(100*res.OoD.ErrShare, "ood_err_share_%")
	b.ReportMetric(res.OoD.ErrRatio, "err_ratio_x")
}

// BenchmarkModelZoo compares the model classes the I/O literature uses
// (ridge, tree, GBT default/tuned, NN) against the duplicate floor — the
// Sec. VI.B survey as one run.
func BenchmarkModelZoo(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ModelZoo(theta, benchScale(), 10)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		for _, row := range res.Rows {
			if row.Model == "GBT (tuned)" {
				b.ReportMetric(100*row.TestPct, "gbt_tuned_err_%")
			}
			if row.Model == "ridge regression" {
				b.ReportMetric(100*row.TestPct, "ridge_err_%")
			}
		}
		b.ReportMetric(100*res.FloorPct, "floor_%")
	}
}

// BenchmarkTruthCheck validates the litmus-test estimates against the
// simulator's injected ground truth — the repo's strongest evidence that
// the taxonomy machinery measures what it claims.
func BenchmarkTruthCheck(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TruthCheck(theta, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(res.SigmaTrue, "sigma_injected")
		b.ReportMetric(res.SigmaEstimated, "sigma_estimated")
	}
}

// BenchmarkWorkloadMap clusters the workload in feature space (the Sec. II
// clustering direction).
func BenchmarkWorkloadMap(b *testing.B) {
	theta, _ := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.WorkloadMap(theta, benchScale(), []int{4, 6, 8}, 500)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, res)
		b.ReportMetric(float64(res.K), "k")
		b.ReportMetric(res.Purity, "app_purity")
	}
}

// Serving benchmarks: the online path of internal/serve. The headline
// comparison is the duplicate-aware cache on a duplicate-heavy workload
// (the paper's Sec. VI finding at serving time): CacheOn must beat
// CacheOff on ns/row while answering most rows from cache.

var (
	serveOnce   sync.Once
	serveBundle *serve.ModelVersion
	serveRows   [][]float64
	serveErr    error
)

// serveFixture trains one bench-scale serving bundle (theta, ensemble of
// three) once for all serving benchmarks.
func serveFixture(b *testing.B) (*serve.ModelVersion, [][]float64) {
	b.Helper()
	serveOnce.Do(func() {
		frame, err := Generate(ThetaLike(1500))
		if err != nil {
			serveErr = err
			return
		}
		cfg := serve.BootstrapConfig{
			Jobs: 1500, Trees: 60, Depth: 6,
			EnsembleSize: 3, Epochs: 6, Seed: 1, Versions: 1,
		}
		serveBundle, serveErr = serve.BuildVersion("theta", 1, frame, cfg)
		serveRows = frame.Rows()
	})
	if serveErr != nil {
		b.Fatal(serveErr)
	}
	return serveBundle, serveRows
}

// benchServe pushes a pre-generated workload through an in-process service
// and reports per-row cost plus the cache hit ratio. traceEvery > 0 turns
// request tracing on (1-in-N head sampling) to price the tracing path.
func benchServe(b *testing.B, cacheSize, batchSize int, dupRate float64, traceEvery int) {
	mv, pool := serveFixture(b)
	reg := serve.NewRegistry()
	if err := reg.Add(mv); err != nil {
		b.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{
		MaxBatch:   64,
		MaxDelay:   200 * time.Microsecond,
		CacheSize:  cacheSize,
		TraceEvery: traceEvery,
	})
	defer svc.Close()
	gen, err := serve.NewLoadGen(serve.LoadSpec{
		System: "theta", Requests: 1, BatchSize: batchSize,
		DupRate: dupRate, Seed: 7,
	}, pool)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-generate the request stream outside the timer.
	const nReqs = 256
	reqs := make([][][]float64, nReqs)
	for i := range reqs {
		reqs[i] = gen.NextRows()
	}
	ctx := context.Background()
	// Serving-path heap traffic is a tracked regression axis (benchcmp
	// tripwires on allocs/op), so these benchmarks always report it.
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.Predict(ctx, "theta", 0, reqs[i%nReqs]); err != nil {
			b.Fatal(err)
		}
		rows += batchSize
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	b.ReportMetric(100*svc.Metrics().HitRatio(), "cache_hit_%")
	b.ReportMetric(svc.Metrics().MeanBatchSize(), "rows/eval_batch")
}

// BenchmarkServeDupHeavyCacheOn/Off is the acceptance comparison: an 80%
// duplicate workload with and without the duplicate-aware cache.
func BenchmarkServeDupHeavyCacheOn(b *testing.B)  { benchServe(b, 1<<16, 8, 0.8, 0) }
func BenchmarkServeDupHeavyCacheOff(b *testing.B) { benchServe(b, 0, 8, 0.8, 0) }

// BenchmarkServeUniqueCacheOn bounds the cache's overhead when nothing
// repeats (every row unique, hits only from the 256-request cycle).
func BenchmarkServeUniqueCacheOn(b *testing.B) { benchServe(b, 1<<16, 8, 0, 0) }

// Batch-size sweep (uncached): amortization of the micro-batch path.
func BenchmarkServeBatch1(b *testing.B)  { benchServe(b, 0, 1, 0, 0) }
func BenchmarkServeBatch16(b *testing.B) { benchServe(b, 0, 16, 0, 0) }
func BenchmarkServeBatch64(b *testing.B) { benchServe(b, 0, 64, 0, 0) }

// BenchmarkServeBatch16Traced prices the tracing path: every request is
// head-sampled into the trace ring (the worst case — production samples a
// small fraction). Informational: not in the committed snapshot, so
// benchcmp's regression gate never keys on it; compare against
// ServeBatch16 by eye to see what a retained trace costs.
func BenchmarkServeBatch16Traced(b *testing.B) { benchServe(b, 0, 16, 0, 1) }

// Wire-path benchmarks: layers and whole paths over one shared 16-row
// request (the first 16 rows of the serving pool), each row a miss, so
// ServeHTTP16 minus ServeBatch16 is what HTTP and the wire codec add to
// the in-process path, and RouteHTTP16 adds the router hop on top.

// wireFixture returns the 16-row request body and a service-built
// response to it.
func wireFixture(b *testing.B) ([]byte, *serve.PredictResponse) {
	mv, pool := serveFixture(b)
	req := &serve.PredictRequest{System: "theta", Rows: pool[:16]}
	body, err := serve.AppendPredictRequest(nil, req)
	if err != nil {
		b.Fatal(err)
	}
	svc := newWireService(b, mv)
	resp, _, err := svc.ServeRequest(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	return body, resp
}

// newWireService is benchServe's uncached service.
func newWireService(b *testing.B, mv *serve.ModelVersion) *serve.Service {
	reg := serve.NewRegistry()
	if err := reg.Add(mv); err != nil {
		b.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{MaxBatch: 64, MaxDelay: 200 * time.Microsecond})
	b.Cleanup(svc.Close)
	return svc
}

// BenchmarkWireDecode16 is the request decode layer alone.
func BenchmarkWireDecode16(b *testing.B) {
	body, _ := wireFixture(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serve.DecodePredictRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncode16 is the response encode layer alone.
func BenchmarkWireEncode16(b *testing.B) {
	_, resp := wireFixture(b)
	buf, err := serve.AppendPredictResponse(nil, resp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = serve.AppendPredictResponse(buf[:0], resp); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPost drives POST /v1/predict on url with the fixture body over one
// keep-alive connection, opened (and the path warmed) before the timer.
func benchPost(b *testing.B, url string, body []byte) {
	client := &http.Client{}
	post := func() {
		resp, err := client.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, err %v", resp.StatusCode, err)
		}
	}
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(16*b.N), "ns/row")
}

// BenchmarkServeHTTP16 is one ioserve replica over HTTP: decode, predict,
// encode, and the loopback round trip (client and server allocations both
// count).
func BenchmarkServeHTTP16(b *testing.B) {
	body, _ := wireFixture(b)
	mv, _ := serveFixture(b)
	ts := httptest.NewServer(serve.Handler(newWireService(b, mv)))
	defer ts.Close()
	benchPost(b, ts.URL, body)
}

// BenchmarkRouteHTTP16 is a routed request: the fleet router's HTTP
// surface over two replicas, each reached over HTTP by its Remote backend.
func BenchmarkRouteHTTP16(b *testing.B) {
	body, _ := wireFixture(b)
	mv, _ := serveFixture(b)
	var backends []fleet.Predictor
	for _, name := range []string{"a", "b"} {
		ts := httptest.NewServer(serve.Handler(newWireService(b, mv)))
		defer ts.Close()
		backends = append(backends, fleet.NewRemote(name, ts.URL, fleet.RemoteConfig{}))
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{}, backends...)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	ts := httptest.NewServer(fleet.Handler(rt))
	defer ts.Close()
	benchPost(b, ts.URL, body)
}

func BenchmarkTableT3(b *testing.B) {
	theta, cori := benchFrames(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := experiments.T3(theta)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := experiments.T3(cori)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, rt)
		renderOnce(b, rc)
		b.ReportMetric(100*rt.Noise.Bound68Pct, "theta_68_%")
		b.ReportMetric(100*rc.Noise.Bound68Pct, "cori_68_%")
	}
}
