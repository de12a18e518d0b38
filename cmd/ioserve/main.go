// Command ioserve is the online I/O-throughput prediction service: it loads
// a registry of serialized models and serves predictions with taxonomy
// guardrails over HTTP.
//
// Usage:
//
//	ioserve -models ./registry                    # serve an existing registry
//	ioserve -bootstrap -models ./registry         # train demo bundles, then serve
//	ioserve -bootstrap -jobs 2000 -addr :9000     # smaller bootstrap, custom port
//	ioserve -models ./registry -reload-interval 5s -shadow-fraction 0.1
//	ioserve -models ./registry -reload-interval 5s -shadow-fraction 0.1 \
//	        -drift-interval 30s -auto-promote -auto-rollback \
//	        -admin-token $IOSERVE_ADMIN_TOKEN
//	ioserve -models ./registry -trace-sample 0.01 -pprof-addr localhost:6060 \
//	        -log-format json -log-level debug
//	ioserve -models ./registry -router http://127.0.0.1:8070 \
//	        -advertise http://10.0.0.5:8080      # join an iorouter fleet
//
// Endpoints:
//
//	POST /v1/predict            {"system":"theta","rows":[[...]]}  (or "row":[...])
//	GET  /v1/models             registry listing
//	GET  /v1/versions           lifecycle view (active/latest, shadow deltas)
//	POST /v1/versions/promote   {"system":"theta","version":2}      [admin]
//	POST /v1/versions/rollback  {"system":"theta"}                  [admin]
//	POST /v1/versions/reload    force a registry reload poll        [admin]
//	GET  /v1/trace              retained request traces             [admin]
//	GET  /v1/trace/{id}         one trace's span tree               [admin]
//	GET  /v1/drift              drift-monitor status + decision log
//	POST /v1/drift/retrain      {"system":"theta"} force a retrain  [admin]
//	POST /v1/feedback           ground-truth ingestion              [admin]
//	GET  /v1/resilience         admission gate + breaker status     [admin]
//	GET  /v1/slo                SLO compliance, burn rates, alerts
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text format
//
// With -reload-interval the registry directory is polled for new, changed,
// or removed version directories and the live registry swapped without a
// restart; with -shadow-fraction a deterministic slice of served traffic
// is mirrored to the adjacent model versions and the online error deltas
// exposed at /metrics and /v1/versions.
//
// With -drift-interval the closed-loop control plane (internal/drift) runs
// on top: live traffic is compared per feature against the training-time
// reference histograms (PSI/KS), ground truth posted to /v1/feedback is
// tracked against the noise floor, confirmed drift triggers an automated
// retrain published through the registry protocol, and the policy engine
// auto-promotes a clean candidate (-auto-promote) or rolls back a
// regressing one (-auto-rollback).
//
// Observability: -trace-sample enables request tracing — every request's
// per-stage latency split lands in the /metrics stage histograms, and
// tail-sampling retains errors, OoD-flagged requests, requests slower than
// the moving p99, plus the given head-sampled fraction in a ring served at
// GET /v1/trace. -slo tracks objectives ('predict:p99=25ms,avail=99.9')
// against served traffic with multi-window burn rates at GET /v1/slo and
// ioserve_slo_* series. -pprof-addr serves net/http/pprof on its own
// listener (keep it loopback-only). Logs are structured (log/slog);
// -log-format json emits one JSON object per line, -log-level tunes
// verbosity.
//
// Resilience: -admission-max-inflight bounds concurrent predict work and
// sheds the excess with 429 + Retry-After (control traffic — feedback,
// admin — is shed only at twice the cap); -admission-p99 adds a latency
// trigger on the moving p99 of admitted requests. -default-deadline
// propagates a per-request deadline end to end (clients can lower it with
// X-Request-Timeout-Ms); expired requests are dropped before evaluation
// and answered 504. The reloader and the drift retrain chain run behind
// circuit breakers with jittered backoff, visible at GET /v1/resilience.
// -chaos injects faults (latency, errors, panics, registry corruption,
// plus hbloss=/partition= membership faults) for resilience testing;
// SIGINT/SIGTERM drains in-flight requests for -shutdown-grace before
// exiting.
//
// Fleet membership: -router self-registers this replica with an iorouter
// and keeps a heartbeat lease renewed (jittered; -heartbeat-interval
// overrides the router's suggested cadence, -advertise sets the URL the
// router dials back when the listen address is not routable). A heartbeat
// answered 404 re-registers automatically. SIGTERM then becomes a
// coordinated drain: the replica deregisters first and waits for the
// router to confirm its in-flight rows finished before the local HTTP
// drain — zero lost requests; if the router is unreachable the replica
// exits anyway and its lease expires.
//
// -admin-token (or IOSERVE_ADMIN_TOKEN) gates every [admin] endpoint with
// a bearer token; unset leaves them open (development mode).
//
// Every prediction carries the paper's taxonomy guardrail: the deep
// ensemble's epistemic uncertainty with an OoD flag (Sec. VIII) and a
// noise-floor annotation from concurrent duplicates (Sec. IX), plus a
// cache-hit indicator from the duplicate-aware prediction cache (Sec. VI).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"iotaxo/internal/drift"
	"iotaxo/internal/fleet"
	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
	"iotaxo/internal/resilience/chaos"
	"iotaxo/internal/serve"
)

// config carries the parsed flags.
type config struct {
	addr           string
	models         string
	bootstrap      bool
	jobs           int
	versions       int
	maxBatch       int
	maxDelay       time.Duration
	workers        int
	cacheSize      int
	seed           uint64
	reloadInterval time.Duration
	shadowFraction float64
	shadowWorkers  int
	adminToken     string
	driftInterval  time.Duration
	psiThreshold   float64
	autoPromote    bool
	autoRollback   bool
	retrainWindow  int
	traceSample    float64
	traceBuffer    int
	sloSpec        string
	pprofAddr      string
	logFormat      string
	logLevel       string

	admissionMax    int
	admissionP99    time.Duration
	defaultDeadline time.Duration
	shutdownGrace   time.Duration
	chaosSpec       string

	routerURL         string
	advertiseURL      string
	heartbeatInterval time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.models, "models", "", "model registry directory")
	flag.BoolVar(&cfg.bootstrap, "bootstrap", false, "train demo bundles into -models before serving")
	flag.IntVar(&cfg.jobs, "jobs", 4000, "jobs per bootstrapped system")
	flag.IntVar(&cfg.versions, "versions", 2, "bootstrapped versions per system")
	flag.IntVar(&cfg.maxBatch, "max-batch", 32, "micro-batch size cap")
	flag.DurationVar(&cfg.maxDelay, "max-delay", 2*time.Millisecond, "straggler window a lone single-row submission may wait for company")
	flag.IntVar(&cfg.workers, "workers", 2, "micro-batch worker pool size")
	flag.IntVar(&cfg.cacheSize, "cache", 1<<16, "duplicate cache capacity in entries (0 disables)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "bootstrap seed")
	flag.DurationVar(&cfg.reloadInterval, "reload-interval", 0,
		"poll -models for new/changed/removed versions and swap them live (0 disables)")
	flag.Float64Var(&cfg.shadowFraction, "shadow-fraction", 0,
		"fraction of active-version rows mirrored to adjacent versions for online comparison (0 disables)")
	flag.IntVar(&cfg.shadowWorkers, "shadow-workers", 1, "shadow mirror worker pool size")
	flag.StringVar(&cfg.adminToken, "admin-token", os.Getenv("IOSERVE_ADMIN_TOKEN"),
		"bearer token required on mutating admin endpoints (default $IOSERVE_ADMIN_TOKEN; empty leaves them open)")
	flag.DurationVar(&cfg.driftInterval, "drift-interval", 0,
		"drift-detection window period; enables the closed-loop control plane (0 disables)")
	flag.Float64Var(&cfg.psiThreshold, "drift-psi-threshold", 0.2,
		"per-feature PSI above which a window counts toward a drift signal")
	flag.BoolVar(&cfg.autoPromote, "auto-promote", false,
		"let the policy engine promote a retrained candidate after k clean windows")
	flag.BoolVar(&cfg.autoRollback, "auto-rollback", false,
		"let the policy engine roll back a regressing version after k bad windows")
	flag.IntVar(&cfg.retrainWindow, "retrain-window", 4096,
		"feedback rows buffered per system for automated retraining")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 0,
		"fraction of requests head-sampled into the trace ring; errors, OoD, and slow requests are always kept (0 disables tracing)")
	flag.IntVar(&cfg.traceBuffer, "trace-buffer", 256, "retained-trace ring capacity")
	flag.StringVar(&cfg.sloSpec, "slo", "",
		"SLO objectives as 'class:p99=25ms,avail=99.9[;class:...]' over classes predict and control; enables /v1/slo and ioserve_slo_* series (empty disables)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "",
		"serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log output format: text or json")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log verbosity: debug, info, warn, or error")
	flag.IntVar(&cfg.admissionMax, "admission-max-inflight", 0,
		"admission-control soft cap on concurrent predict requests; above it predict traffic is shed with 429 (0 disables admission control)")
	flag.DurationVar(&cfg.admissionP99, "admission-p99", 0,
		"shed predict traffic when the moving p99 of admitted requests exceeds this while the gate is above half its soft cap (0 disables the latency trigger)")
	flag.DurationVar(&cfg.defaultDeadline, "default-deadline", 0,
		"per-request deadline applied to predict requests; clients may lower it with the "+serve.DeadlineHeader+" header (0 disables)")
	flag.DurationVar(&cfg.shutdownGrace, "shutdown-grace", 10*time.Second,
		"drain window for in-flight requests after SIGINT/SIGTERM before the listener is torn down")
	flag.StringVar(&cfg.chaosSpec, "chaos", "",
		`fault-injection spec, e.g. "latency=5ms:0.2,error=0.05,panic=0.01,corrupt=0.1,hbloss=0.3,partition=0.1" (empty disables; never set in production)`)
	flag.StringVar(&cfg.routerURL, "router", "",
		"iorouter base URL to self-register with (dynamic fleet membership; empty disables)")
	flag.StringVar(&cfg.advertiseURL, "advertise", "",
		"base URL the router should dial back for this replica (default derives http://127.0.0.1 from -addr)")
	flag.DurationVar(&cfg.heartbeatInterval, "heartbeat-interval", 0,
		"membership heartbeat cadence (0 takes the router's grant: lease TTL / 3)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ioserve:", err)
		os.Exit(1)
	}
}

// traceEvery converts the -trace-sample fraction to the tracer's 1-in-N
// head-sampling period (0 = disabled).
func traceEvery(sample float64) int {
	if sample <= 0 {
		return 0
	}
	if sample >= 1 {
		return 1
	}
	return int(math.Round(1 / sample))
}

func run(cfg config) error {
	logger, err := obs.NewLogger(os.Stderr, cfg.logFormat, cfg.logLevel)
	if err != nil {
		return err
	}
	// The signal context drives graceful shutdown: first SIGINT/SIGTERM
	// starts the drain, a second one kills the process the default way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var inj *chaos.Injector
	if cfg.chaosSpec != "" {
		ccfg, err := chaos.Parse(cfg.chaosSpec)
		if err != nil {
			return err
		}
		inj = chaos.NewInjector(ccfg, int64(cfg.seed))
		if inj != nil {
			logger.Warn("chaos injection ENABLED — never run this in production", "spec", cfg.chaosSpec)
		}
	}

	var reg *serve.Registry
	switch {
	case cfg.bootstrap:
		bcfg := serve.DefaultBootstrap()
		bcfg.Jobs = cfg.jobs
		bcfg.Versions = cfg.versions
		bcfg.Seed = cfg.seed
		logger.Info("bootstrapping registry",
			"systems", fmt.Sprint(bcfg.Systems), "jobs", bcfg.Jobs, "versions", bcfg.Versions)
		reg, err = serve.Bootstrap(bcfg, cfg.models)
		if err != nil {
			return err
		}
		if cfg.models != "" {
			logger.Info("registry persisted", "dir", cfg.models)
		}
	case cfg.models != "":
		reg, err = serve.LoadRegistry(cfg.models)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -models or -bootstrap is required")
	}

	svc := serve.NewService(reg, serve.Options{
		MaxBatch:       cfg.maxBatch,
		MaxDelay:       cfg.maxDelay,
		Workers:        cfg.workers,
		CacheSize:      cfg.cacheSize,
		ShadowFraction: cfg.shadowFraction,
		ShadowWorkers:  cfg.shadowWorkers,
		TraceEvery:     traceEvery(cfg.traceSample),
		TraceBuffer:    cfg.traceBuffer,
		Logger:         logger,
		Chaos:          inj,
	})
	defer svc.Close()
	svc.Metrics().RegisterCollector(obs.RuntimeFamilies)

	// The resilience set aggregates the admission gate and the control-plane
	// breakers behind one /metrics collector and the /v1/resilience view.
	res := resilience.NewSet()
	svc.Metrics().RegisterCollector(func() []obs.PromFamily { return res.Families("ioserve") })
	var gate *resilience.Gate
	if cfg.admissionMax > 0 {
		gate = resilience.NewGate(resilience.GateConfig{
			MaxInflight:  cfg.admissionMax,
			P99Threshold: cfg.admissionP99,
		})
		res.SetGate(gate)
		logger.Info("admission control on",
			"max_inflight", cfg.admissionMax, "p99_threshold", cfg.admissionP99)
	}

	if cfg.reloadInterval > 0 {
		if cfg.models == "" {
			return fmt.Errorf("-reload-interval needs -models (an on-disk registry to watch)")
		}
		rel, err := serve.NewReloader(svc, cfg.models, cfg.reloadInterval)
		if err != nil {
			return err
		}
		rel.SetResilience(res.NewBreaker("reload", resilience.BreakerConfig{}))
		rel.Start()
		logger.Info("registry reloading on", "dir", cfg.models, "interval", cfg.reloadInterval)
	}
	if inj != nil && cfg.models != "" {
		// Registry-corruption chaos: periodically roll the corrupt dice and,
		// on a hit, drop a bogus version directory into the watched registry
		// for the reloader's skip-and-backoff path to chew on.
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if !inj.CorruptTick() {
						continue
					}
					if dir, err := inj.CorruptRegistry(cfg.models); err != nil {
						logger.Warn("chaos registry corruption failed", "err", err)
					} else {
						logger.Warn("chaos corrupted registry", "dir", dir)
					}
				}
			}
		}()
	}
	if cfg.shadowFraction > 0 {
		logger.Info("shadow mirroring on", "fraction", cfg.shadowFraction)
	}
	if cfg.traceSample > 0 {
		logger.Info("request tracing on",
			"head_sample_every", traceEvery(cfg.traceSample), "ring", cfg.traceBuffer)
	}

	handler := serve.NewHandler(svc, serve.HandlerConfig{
		AdminToken:      cfg.adminToken,
		Gate:            gate,
		Resilience:      res,
		DefaultDeadline: cfg.defaultDeadline,
	})
	if cfg.driftInterval > 0 {
		dcfg := drift.Config{
			Root:          cfg.models,
			Interval:      cfg.driftInterval,
			PSIThreshold:  cfg.psiThreshold,
			AutoPromote:   cfg.autoPromote,
			AutoRollback:  cfg.autoRollback,
			RetrainWindow: cfg.retrainWindow,
			Breaker:       res.NewBreaker("retrain", resilience.BreakerConfig{}),
			Logger:        logger,
		}
		if cfg.shadowFraction > 0 {
			// With mirroring on, demand shadow evidence before verdicts.
			dcfg.MinMirrored = 16
		}
		ctl := drift.New(svc, dcfg)
		ctl.Start()
		defer ctl.Close()
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		// Drift admin and feedback are control-class traffic: the gate sheds
		// them only at the hard limit, so feedback keeps flowing while
		// predict load is being shed.
		driftHandler := resilience.AdmitHandler(gate, resilience.ClassControl, ctl.Handler(cfg.adminToken))
		mux.Handle("/v1/drift", driftHandler)
		mux.Handle("/v1/drift/", driftHandler)
		mux.Handle("/v1/feedback", driftHandler)
		handler = mux
		logger.Info("drift control plane on",
			"window", cfg.driftInterval, "psi", cfg.psiThreshold,
			"auto_promote", cfg.autoPromote, "auto_rollback", cfg.autoRollback)
	}
	if cfg.sloSpec != "" {
		specs, err := obs.ParseSLO(cfg.sloSpec)
		if err != nil {
			return err
		}
		slo := obs.NewSLO(specs)
		svc.Metrics().RegisterCollector(func() []obs.PromFamily { return slo.Families("ioserve") })
		// The middleware wraps the whole surface (drift mux included) so
		// predict and control outcomes both land in the objectives; /v1/slo
		// itself sits outside the wrap.
		classify := func(r *http.Request) string {
			switch {
			case r.URL.Path == "/v1/predict":
				return "predict"
			case r.URL.Path == "/v1/feedback" || strings.HasPrefix(r.URL.Path, "/v1/drift"):
				return "control"
			}
			return ""
		}
		smux := http.NewServeMux()
		smux.Handle("/", obs.SLOMiddleware(slo, classify, handler))
		smux.Handle("/v1/slo", slo.Handler())
		handler = smux
		for _, s := range specs {
			logger.Info("SLO objective on", "objective", s.String())
		}
	}
	if cfg.adminToken != "" {
		logger.Info("admin endpoints require a bearer token")
	}
	var psrv *http.Server
	if cfg.pprofAddr != "" {
		// pprof gets its own mux on its own listener so profiling exposure
		// is an explicit, separately firewallable choice — never a route
		// that leaks onto the serving port.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv = &http.Server{Addr: cfg.pprofAddr, Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", cfg.pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}
	if cfg.defaultDeadline > 0 {
		logger.Info("request deadline on", "default", cfg.defaultDeadline, "header", serve.DeadlineHeader)
	}

	for _, info := range reg.List() {
		logger.Info("model loaded",
			"system", info.System, "version", info.Version, "features", info.Features,
			"trees", info.Trees, "ensemble", info.EnsembleSize,
			"eu_threshold", info.Guard.EUThreshold, "active", info.Active)
	}
	logger.Info("listening", "addr", cfg.addr)
	server := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() {
		if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			serveErr <- err
		}
	}()

	// Dynamic fleet membership: announce to the router, heartbeat the
	// lease, and on shutdown run the coordinated drain before the local
	// HTTP drain.
	var agent *fleet.Agent
	if cfg.routerURL != "" {
		advertise := cfg.advertiseURL
		if advertise == "" {
			advertise = deriveAdvertise(cfg.addr)
			if advertise == "" {
				return fmt.Errorf("-advertise is required with -router when -addr (%q) has no usable host", cfg.addr)
			}
		}
		// The router names remote replicas by host:port of the base URL.
		name := strings.TrimPrefix(strings.TrimPrefix(advertise, "http://"), "https://")
		var systems []string
		for _, info := range reg.List() {
			systems = append(systems, info.System)
		}
		agent, err = fleet.NewAgent(fleet.AgentConfig{
			RouterURL:    cfg.routerURL,
			Name:         name,
			AdvertiseURL: advertise,
			Capabilities: map[string]string{
				"service": "ioserve",
				"systems": strings.Join(systems, ","),
			},
			AdminToken: cfg.adminToken,
			Heartbeat:  cfg.heartbeatInterval,
			Logger:     logger,
			Chaos:      inj,
		})
		if err != nil {
			return err
		}
		go agent.Run(ctx)
		logger.Info("fleet membership on", "router", cfg.routerURL, "advertise", advertise, "name", name)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stopSignals()
	logger.Info("shutting down", "grace", cfg.shutdownGrace)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownGrace)
	defer cancel()
	if agent != nil {
		// Coordinated drain, step 1: deregister and wait for the router to
		// confirm the arc handoff — after this no new rows arrive, so the
		// local HTTP drain below only finishes stragglers. If the router is
		// unreachable the lease expires and ejects us the hard way; exiting
		// anyway is safe.
		if resp, err := agent.Drain(sctx); err != nil {
			logger.Warn("fleet drain handshake failed; relying on lease expiry", "err", err)
		} else {
			logger.Info("fleet drain confirmed", "drained", resp.Drained, "pending_rows", resp.PendingRows)
		}
	}
	// Step 2 (or the whole drain when not fleet-registered): stop
	// accepting, let in-flight requests finish within the grace window,
	// then the deferred Close calls stop the drift loop, reloader, and
	// batcher workers.
	if psrv != nil {
		_ = psrv.Shutdown(sctx)
	}
	if err := server.Shutdown(sctx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	logger.Info("shutdown complete")
	return nil
}

// deriveAdvertise guesses a loopback advertise URL from -addr for
// single-host fleets (":8081" → "http://127.0.0.1:8081"). Addresses with
// an explicit host keep it.
func deriveAdvertise(addr string) string {
	host, port, ok := strings.Cut(addr, ":")
	if !ok || port == "" {
		return ""
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return "http://" + host + ":" + port
}
