package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/resilience"
	"iotaxo/internal/resilience/chaos"
)

// HTTP layer. Endpoints:
//
//	POST /v1/predict            — single row ("row") or batch ("rows")
//	GET  /v1/models             — registry listing
//	GET  /v1/versions           — per-system lifecycle view: versions,
//	                              active/latest markers, shadow deltas
//	POST /v1/versions/promote   — pin {"system","version"} as serving default
//	POST /v1/versions/rollback  — revert {"system"} to the pre-promote default
//	POST /v1/versions/reload    — force a registry reload poll
//	GET  /v1/trace              — retained request traces, newest first
//	GET  /v1/trace/{id}         — one trace's span tree
//	GET  /v1/resilience         — admission gate + circuit breaker status
//	GET  /healthz               — liveness + registry summary
//	GET  /metrics               — Prometheus text format
//
// The handler owns no state beyond the Service; it can be mounted into any
// mux or served directly. The mutating admin actions (promote, rollback,
// reload) and the trace endpoints (retained traces carry latency shape and
// system/version topology) can be gated behind a bearer token via
// HandlerConfig.AdminToken; the read and predict paths are never gated.

// maxRequestBody bounds predict request bodies (16 MiB ~ 100k-row batches
// of 20 features; far above anything the batcher wants in one request).
const maxRequestBody = 16 << 20

// PredictRequest is the POST /v1/predict body.
type PredictRequest struct {
	// System selects the model family (e.g. "theta"); required.
	System string `json:"system"`
	// Version pins a model version; 0 or absent means latest.
	Version int `json:"version,omitempty"`
	// Row is the single-prediction form; Rows the batch form. Exactly
	// one must be set.
	Row  []float64   `json:"row,omitempty"`
	Rows [][]float64 `json:"rows,omitempty"`
}

// PredictResponse is the POST /v1/predict reply.
type PredictResponse struct {
	System      string             `json:"system"`
	Version     int                `json:"version"`
	Count       int                `json:"count"`
	Predictions []PredictionResult `json:"predictions"`
	// TraceID is set when tracing retained this request (also sent as the
	// X-Trace-Id header); fetch the span tree at GET /v1/trace/{id}.
	TraceID string `json:"trace_id,omitempty"`
	// ServerTimings is the server-side latency split, so clients (cmd/ioload)
	// can separate queue wait from compute without guessing.
	ServerTimings *ServerTimings `json:"server_timings,omitempty"`
}

// ServerTimings is the server-side stage split shipped in PredictResponse.
// GuardNs is a slice of EvaluateNs, and stages omit scheduling slack, so
// the stages sum to less than TotalNs. DecodeNs is the request body's read
// and parse (0 in-process); the response encode cannot time itself into
// its own body, so it reaches only /metrics and the trace.
type ServerTimings struct {
	TotalNs        int64 `json:"total_ns"`
	DecodeNs       int64 `json:"decode_ns"`
	CacheLookupNs  int64 `json:"cache_lookup_ns"`
	QueueWaitNs    int64 `json:"queue_wait_ns"`
	WaveAssembleNs int64 `json:"wave_assemble_ns"`
	EvaluateNs     int64 `json:"evaluate_ns"`
	GuardNs        int64 `json:"guard_ns"`
	FinalizeNs     int64 `json:"finalize_ns"`
	ObserveNs      int64 `json:"observe_ns"`
}

// serverTimings converts the internal stage attribution to the wire form.
func serverTimings(tm *obs.StageTimings) *ServerTimings {
	return &ServerTimings{
		TotalNs:        tm.TotalNs,
		DecodeNs:       tm.Ns[obs.StageDecode],
		CacheLookupNs:  tm.Ns[obs.StageCacheLookup],
		QueueWaitNs:    tm.Ns[obs.StageQueueWait],
		WaveAssembleNs: tm.Ns[obs.StageWaveAssemble],
		EvaluateNs:     tm.Ns[obs.StageEvaluate],
		GuardNs:        tm.Ns[obs.StageGuard],
		FinalizeNs:     tm.Ns[obs.StageFinalize],
		ObserveNs:      tm.Ns[obs.StageObserve],
	}
}

// DeadlineHeader is the request header carrying a per-request deadline in
// whole milliseconds. The effective deadline is the tighter of this and
// HandlerConfig.DefaultDeadline; a request that exceeds it is dropped
// (from the batcher queue if it hasn't evaluated yet) and answered 504.
const DeadlineHeader = "X-Request-Timeout-Ms"

// HandlerConfig tunes the HTTP layer.
type HandlerConfig struct {
	// AdminToken, when non-empty, is required (constant-time compared) on
	// every mutating admin endpoint: requests must carry it as
	// "Authorization: Bearer <token>" or "X-Admin-Token: <token>", and a
	// missing or mismatched token is answered with 401 before the body is
	// read. Empty leaves the admin endpoints open (the pre-authn behavior).
	AdminToken string
	// Gate, when non-nil, applies admission control to POST /v1/predict:
	// shed requests are answered 429 + Retry-After before the body is
	// read, and accepted-request latency feeds the gate's moving p99.
	Gate *resilience.Gate
	// Resilience, when non-nil, mounts GET /v1/resilience (admin-gated):
	// the gate and breaker status view.
	Resilience *resilience.Set
	// DefaultDeadline bounds every predict request's end-to-end time
	// (the -default-deadline flag). 0 means no server-imposed deadline;
	// clients can always tighten via the DeadlineHeader.
	DefaultDeadline time.Duration
}

// AdminAuthorized reports whether a request may perform admin actions
// under the given token ("" means no authn is configured — every request
// qualifies). The comparison is constant-time, so the check does not leak
// how much of a guessed token matched.
func AdminAuthorized(r *http.Request, token string) bool {
	if token == "" {
		return true
	}
	got := r.Header.Get("X-Admin-Token")
	if auth := r.Header.Get("Authorization"); got == "" && strings.HasPrefix(auth, "Bearer ") {
		got = strings.TrimPrefix(auth, "Bearer ")
	}
	return subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1
}

// RequireAdmin wraps a handler with the admin-token gate; internal/drift
// reuses it for its own mutating endpoints so the whole control plane
// shares one credential.
func RequireAdmin(token string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !AdminAuthorized(r, token) {
			w.Header().Set("WWW-Authenticate", "Bearer")
			WriteError(w, http.StatusUnauthorized, "admin token required")
			return
		}
		next(w, r)
	}
}

// Handler wraps a Service as an http.Handler with open admin endpoints.
func Handler(svc *Service) http.Handler { return NewHandler(svc, HandlerConfig{}) }

// TraceHeader is the response (and router-hop request) header carrying the
// trace ID. Inbound, a fleet router stamps its own trace ID here so the
// replica's retained trace records it as the parent; outbound, it names
// the trace the server retained for this request.
const TraceHeader = "X-Trace-Id"

// StatusForError maps a predict error to its HTTP status. Shared by the
// in-process HTTP layer and the fleet router (which must translate backend
// errors to statuses the same way a replica itself would).
func StatusForError(err error) int {
	switch {
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrBatcherClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; nobody reads this, but log-parsers do.
		return http.StatusServiceUnavailable
	case errors.Is(err, chaos.ErrInjected):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrEvalPanic):
		return http.StatusInternalServerError
	default:
		// Schema mismatches and malformed batches are client errors.
		return http.StatusBadRequest
	}
}

// ServeRequest is the transport-neutral predict core: request validation,
// the traced predict call, and response assembly, with no HTTP anywhere.
// The HTTP handler and the fleet's in-process replica backend share it, so
// a router-local replica serves exactly what a remote one would. The
// returned trace hex is non-empty when tail-sampling retained the request
// (set on success and error alike — a failed request's trace is exactly
// the one an operator wants to look up).
func (s *Service) ServeRequest(ctx context.Context, req *PredictRequest) (*PredictResponse, string, error) {
	var rq request
	resp, traceHex, err := s.serveRequest(ctx, req, time.Now(), &rq)
	s.finish(&rq, 0)
	return resp, traceHex, err
}

// serveRequest is ServeRequest for a request that began at start; the
// caller completes rq with finish.
func (s *Service) serveRequest(ctx context.Context, req *PredictRequest, start time.Time, rq *request) (*PredictResponse, string, error) {
	if req.System == "" {
		return nil, "", errBadRequest("missing \"system\"")
	}
	rows := req.Rows
	if req.Row != nil {
		if rows != nil {
			return nil, "", errBadRequest("set \"row\" or \"rows\", not both")
		}
		rows = [][]float64{req.Row}
	}
	if len(rows) == 0 {
		return nil, "", errBadRequest("no rows to predict")
	}
	results, mv, traceID, err := s.predictTraced(ctx, req.System, req.Version, rows, start, rq)
	traceHex := ""
	if traceID != 0 {
		traceHex = obs.FormatTraceID(traceID)
	}
	if err != nil {
		return nil, traceHex, err
	}
	return &PredictResponse{
		System:        req.System,
		Version:       mv.Version,
		Count:         len(results),
		Predictions:   results,
		TraceID:       traceHex,
		ServerTimings: serverTimings(&rq.tm),
	}, traceHex, nil
}

// NewHandler wraps a Service as an http.Handler under the given config.
func NewHandler(svc *Service, cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		handlePredict(svc, &cfg, w, r)
	})
	if cfg.Resilience != nil {
		mux.Handle("/v1/resilience", RequireAdmin(cfg.AdminToken, cfg.Resilience.Handler().ServeHTTP))
	} else {
		mux.HandleFunc("/v1/resilience", func(w http.ResponseWriter, r *http.Request) {
			WriteError(w, http.StatusConflict, "resilience layer not configured (start ioserve with -admission-max-inflight or -reload-interval)")
		})
	}
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"models": svc.Registry().List()})
	})
	mux.HandleFunc("/v1/versions", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"systems": systemVersions(svc)})
	})
	mux.HandleFunc("/v1/versions/promote", RequireAdmin(cfg.AdminToken, func(w http.ResponseWriter, r *http.Request) {
		handleVersionAction(svc, w, r, func(req versionActionRequest) (int, error) {
			if req.Version <= 0 {
				return 0, errBadRequest("missing \"version\"")
			}
			if err := svc.Registry().Promote(req.System, req.Version); err != nil {
				return 0, err
			}
			return req.Version, nil
		})
	}))
	mux.HandleFunc("/v1/versions/rollback", RequireAdmin(cfg.AdminToken, func(w http.ResponseWriter, r *http.Request) {
		handleVersionAction(svc, w, r, func(req versionActionRequest) (int, error) {
			return svc.Registry().Rollback(req.System)
		})
	}))
	mux.HandleFunc("/v1/versions/reload", RequireAdmin(cfg.AdminToken, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		rel := svc.Reloader()
		if rel == nil {
			WriteError(w, http.StatusConflict, "no reloader attached (start ioserve with -reload-interval)")
			return
		}
		stats, err := rel.Poll()
		body := map[string]any{"reload": stats}
		status := http.StatusOK
		if err != nil {
			// Per-directory load failures are the documented skip-and-
			// keep-serving policy — report them at 200 alongside the
			// stats. Only a poll that failed wholesale (the root itself
			// unscannable) is a server fault that status-code-driven
			// automation must see as one.
			body["error"] = err.Error()
			if errors.Is(err, errScanFailed) {
				status = http.StatusInternalServerError
			}
		}
		WriteJSON(w, status, body)
	}))
	mux.HandleFunc("/v1/trace", RequireAdmin(cfg.AdminToken, func(w http.ResponseWriter, r *http.Request) {
		handleTraceList(svc, w, r)
	}))
	mux.HandleFunc("/v1/trace/", RequireAdmin(cfg.AdminToken, func(w http.ResponseWriter, r *http.Request) {
		handleTraceGet(svc, w, r)
	}))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"systems":  svc.Registry().Systems(),
			"versions": svc.Registry().NumVersions(),
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MetricsContentType)
		_ = svc.Metrics().WriteText(w)
	})
	return mux
}

func handlePredict(svc *Service, cfg *HandlerConfig, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Admission runs before the body is read: a shed request must cost the
	// server as close to nothing as possible, or shedding can't shed load.
	if cfg.Gate != nil {
		ok, reason := cfg.Gate.Admit(resilience.ClassPredict)
		if !ok {
			w.Header().Set("Retry-After", cfg.Gate.RetryAfterHeader())
			if id := svc.TraceShed("", string(reason)); id != 0 {
				w.Header().Set("X-Trace-Id", obs.FormatTraceID(id))
			}
			WriteError(w, http.StatusTooManyRequests, fmt.Sprintf("overloaded (%s): retry later", reason))
			return
		}
		admitStart := time.Now()
		defer func() { cfg.Gate.Release(time.Since(admitStart)) }()
	}
	start := time.Now()
	req, err := ReadPredictRequest(http.MaxBytesReader(w, r.Body, maxRequestBody), r.ContentLength)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	var rq request
	rq.tm.Ns[obs.StageDecode] = time.Since(start).Nanoseconds()
	// Deadline propagation: the tighter of the server default and the
	// client's header bounds the whole predict call — queue wait included,
	// so an expired wave is dropped before evaluation, not after.
	ctx := r.Context()
	deadline := cfg.DefaultDeadline
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("%s must be a positive integer of milliseconds", DeadlineHeader))
			return
		}
		if d := time.Duration(ms) * time.Millisecond; deadline == 0 || d < deadline {
			deadline = d
		}
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	// An upstream X-Trace-Id (the fleet router's hop identity) becomes the
	// parent of whatever trace this replica retains, so one router-side ID
	// finds the replica-side traces of every sub-request it fanned out.
	if h := r.Header.Get(TraceHeader); h != "" {
		if id, err := obs.ParseTraceID(h); err == nil {
			ctx = obs.WithTraceParent(ctx, id)
		}
	}
	resp, traceHex, err := svc.serveRequest(ctx, &req, start, &rq)
	if traceHex != "" {
		// Set on success and error alike: a failed request's retained trace
		// is exactly the one an operator wants to look up.
		w.Header().Set(TraceHeader, traceHex)
	}
	if err != nil {
		svc.finish(&rq, 0)
		status := StatusForError(err)
		if status >= 500 {
			svc.Logger().Error("predict failed",
				"system", req.System,
				"status", status, "trace_id", traceHex, "err", err)
		}
		WriteError(w, status, err.Error())
		return
	}
	bp := GetBuffer()
	defer PutBuffer(bp)
	encodeStart := time.Now()
	*bp, err = AppendPredictResponse(*bp, resp)
	svc.finish(&rq, time.Since(encodeStart).Nanoseconds())
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	WriteBody(w, http.StatusOK, *bp)
}

// handleTraceList serves GET /v1/trace: the retained traces, newest first,
// capped by ?limit=.
func handleTraceList(svc *Service, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	tr := svc.Tracer()
	if tr == nil {
		WriteError(w, http.StatusConflict, "tracing disabled (start ioserve with -trace-sample)")
		return
	}
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	traces := tr.Recent(limit)
	summaries := make([]obs.TraceSummary, len(traces))
	for i := range traces {
		summaries[i] = traces[i].Summary()
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"slow_threshold_ns": int64(math.Round(tr.SlowSeconds() * 1e9)),
		"traces":            summaries,
	})
}

// handleTraceGet serves GET /v1/trace/{id}: one trace's span tree.
func handleTraceGet(svc *Service, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	tr := svc.Tracer()
	if tr == nil {
		WriteError(w, http.StatusConflict, "tracing disabled (start ioserve with -trace-sample)")
		return
	}
	idHex := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	id, err := obs.ParseTraceID(idHex)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad trace id %q", idHex))
		return
	}
	t, ok := tr.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("trace %s not retained (evicted or never kept)", idHex))
		return
	}
	WriteJSON(w, http.StatusOK, t.Detail())
}

// SystemVersions is one system's lifecycle view at GET /v1/versions.
type SystemVersions struct {
	System string `json:"system"`
	// Active is the serving default; Pinned reports whether an operator
	// promotion holds it (false = auto-tracking the highest version).
	Active   int              `json:"active"`
	Pinned   bool             `json:"pinned"`
	Versions []VersionInfo    `json:"versions"`
	Shadow   []ShadowSnapshot `json:"shadow,omitempty"`
}

// systemVersions assembles the lifecycle view for every system.
func systemVersions(svc *Service) []SystemVersions {
	byName := make(map[string]*SystemVersions)
	var order []*SystemVersions
	for _, info := range svc.Registry().List() {
		sv, ok := byName[info.System]
		if !ok {
			sv = &SystemVersions{
				System: info.System,
				Pinned: svc.Registry().Pinned(info.System),
				Shadow: svc.Metrics().ShadowSnapshots(info.System),
			}
			byName[info.System] = sv
			order = append(order, sv)
		}
		if info.Active {
			sv.Active = info.Version
		}
		sv.Versions = append(sv.Versions, info)
	}
	out := make([]SystemVersions, len(order))
	for i, sv := range order {
		out[i] = *sv
	}
	return out
}

// versionActionRequest is the POST body of the promote/rollback actions.
type versionActionRequest struct {
	System  string `json:"system"`
	Version int    `json:"version,omitempty"`
}

// badRequestError marks client errors that must map to 400 rather than the
// registry's 404.
type badRequestError string

func errBadRequest(msg string) error    { return badRequestError(msg) }
func (e badRequestError) Error() string { return string(e) }

// handleVersionAction decodes an admin action, applies it, and answers
// with the system's refreshed lifecycle view.
func handleVersionAction(svc *Service, w http.ResponseWriter, r *http.Request, apply func(versionActionRequest) (int, error)) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req versionActionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if req.System == "" {
		WriteError(w, http.StatusBadRequest, "missing \"system\"")
		return
	}
	active, err := apply(req)
	if err != nil {
		status := http.StatusConflict
		var bad badRequestError
		switch {
		case errors.Is(err, ErrUnknownModel):
			status = http.StatusNotFound
		case errors.As(err, &bad):
			status = http.StatusBadRequest
		}
		WriteError(w, status, err.Error())
		return
	}
	for _, sv := range systemVersions(svc) {
		if sv.System == req.System {
			WriteJSON(w, http.StatusOK, sv)
			return
		}
	}
	// Unreachable unless the system vanished between apply and listing.
	WriteJSON(w, http.StatusOK, map[string]any{"system": req.System, "active": active})
}

// WriteJSON answers with v encoded by encoding/json: the listing and admin
// endpoints, off the predict path.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteBody answers with a complete JSON body.
func WriteBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// WriteError answers with the uniform {"error": msg} body, byte for byte
// what encoding/json writes for it.
func WriteError(w http.ResponseWriter, status int, msg string) {
	body := make([]byte, 0, len(msg)+16)
	WriteBody(w, status, append(AppendString(append(body, `{"error":`...), msg), '}', '\n'))
}
