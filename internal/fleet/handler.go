package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// The router's HTTP surface — a drop-in for ioserve's predict contract:
//
//	POST /v1/predict    — the ioserve body, answered with the replica
//	                      contract plus a per-replica share split
//	GET  /v1/fleet      — membership, breaker states, per-replica load and
//	                      active versions
//	GET  /v1/trace      — retained routed-request traces, newest first
//	GET  /v1/trace/{id} — one stitched cross-process span tree (the
//	                      router's stages with every replica's own span
//	                      tree spliced under its fan-out hop)
//	GET  /v1/slo        — SLO compliance, burn rates, and alert states
//	GET  /healthz       — liveness (503 when no replica is on the ring)
//	GET  /metrics       — iorouter_* series + per-replica breaker series
//	                      + fleet-merged replica series + SLO series
//
// Clients that speak ioserve speak the router unchanged: same request
// body, same error statuses (replica statuses pass through), same
// X-Trace-Id and X-Request-Timeout-Ms headers.

// maxRouterBody mirrors ioserve's predict body bound.
const maxRouterBody = 16 << 20

// HandlerConfig tunes the router's HTTP surface.
type HandlerConfig struct {
	// AdminToken gates the trace endpoints (bearer or X-Admin-Token, the
	// same scheme as ioserve). Empty leaves them open.
	AdminToken string
	// SLO, when non-nil, tracks predict outcomes against its objectives,
	// serves GET /v1/slo, and adds iorouter_slo_* series to /metrics.
	SLO *obs.SLO
}

// Handler mounts the router's HTTP surface with default config.
func Handler(rt *Router) http.Handler { return NewHandler(rt, HandlerConfig{}) }

// NewHandler mounts the router's HTTP surface.
func NewHandler(rt *Router, cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	predict := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handleRoute(rt, w, r)
	})
	mux.Handle("/v1/predict", obs.SLOMiddleware(cfg.SLO, func(r *http.Request) string { return "predict" }, predict))
	mux.HandleFunc("/v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, rt.View())
	})
	// The registration plane. Admin-gated: membership changes are control
	// actions, and the agent sends the same token it uses for its own
	// admin surface.
	mux.HandleFunc("/v1/fleet/register", serve.RequireAdmin(cfg.AdminToken, func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeMembership(w, r, &req) {
			return
		}
		resp, err := rt.Register(req)
		if err != nil {
			writeMembershipError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}))
	mux.HandleFunc("/v1/fleet/heartbeat", serve.RequireAdmin(cfg.AdminToken, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeMembership(w, r, &req) {
			return
		}
		resp, err := rt.Heartbeat(req.Name)
		if err != nil {
			writeMembershipError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}))
	mux.HandleFunc("/v1/fleet/deregister", serve.RequireAdmin(cfg.AdminToken, func(w http.ResponseWriter, r *http.Request) {
		var req DeregisterRequest
		if !decodeMembership(w, r, &req) {
			return
		}
		resp, err := rt.Deregister(r.Context(), req.Name)
		if err != nil {
			writeMembershipError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}))
	mux.HandleFunc("/v1/trace", serve.RequireAdmin(cfg.AdminToken, func(w http.ResponseWriter, r *http.Request) {
		handleFleetTraceList(rt, w, r)
	}))
	mux.HandleFunc("/v1/trace/", serve.RequireAdmin(cfg.AdminToken, func(w http.ResponseWriter, r *http.Request) {
		handleFleetTraceGet(rt, w, r)
	}))
	mux.HandleFunc("/v1/slo", func(w http.ResponseWriter, r *http.Request) {
		if cfg.SLO == nil {
			writeError(w, http.StatusConflict, "SLO tracking disabled (start iorouter with -slo)")
			return
		}
		cfg.SLO.Handler().ServeHTTP(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		view := rt.View()
		status := http.StatusOK
		state := "ok"
		if view.Healthy == 0 {
			status, state = http.StatusServiceUnavailable, "no healthy replicas"
		}
		writeJSON(w, status, map[string]any{
			"status":   state,
			"healthy":  view.Healthy,
			"replicas": len(view.Replicas),
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", serve.MetricsContentType)
		var fams []obs.PromFamily
		for _, part := range [][]obs.PromFamily{
			rt.metrics.families(),
			rt.res.Families("iorouter"),
			rt.tracer.Families(),
			rt.memlog.Families(),
			rt.scrape.Families(),
			cfg.SLO.Families("iorouter"),
		} {
			fams = append(fams, part...)
		}
		// A failed write means the scraper hung up; there is no one left
		// to answer.
		_ = obs.WritePromText(w, fams)
	})
	return mux
}

// FleetTraceSummary is one routed trace in the GET /v1/trace listing.
type FleetTraceSummary struct {
	TraceID string    `json:"trace_id"`
	System  string    `json:"system"`
	Start   time.Time `json:"start"`
	TotalNs int64     `json:"total_ns"`
	Rows    int       `json:"rows"`
	Hops    int       `json:"hops"`
	Kept    string    `json:"kept_because"`
	Error   string    `json:"error,omitempty"`
}

// handleFleetTraceList serves GET /v1/trace: retained routed traces,
// newest first, capped by ?limit=.
func handleFleetTraceList(rt *Router, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if rt.tracer == nil {
		writeError(w, http.StatusConflict, "tracing disabled (start iorouter with -trace-sample)")
		return
	}
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	traces := rt.tracer.Recent(limit)
	summaries := make([]FleetTraceSummary, len(traces))
	for i, t := range traces {
		summaries[i] = FleetTraceSummary{
			TraceID: obs.FormatTraceID(t.ID),
			System:  t.System,
			Start:   t.Start,
			TotalNs: t.TotalNs,
			Rows:    t.Rows,
			Hops:    len(t.Hops),
			Kept:    t.Keep,
			Error:   t.Err,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"slow_threshold_ns": int64(math.Round(rt.tracer.SlowSeconds() * 1e9)),
		"traces":            summaries,
	})
}

// handleFleetTraceGet serves GET /v1/trace/{id}: one stitched
// cross-process span tree. Replica-side trees are fetched live; a hop
// whose replica no longer holds its trace shows an explicit missing
// marker instead of failing the stitch.
func handleFleetTraceGet(rt *Router, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if rt.tracer == nil {
		writeError(w, http.StatusConflict, "tracing disabled (start iorouter with -trace-sample)")
		return
	}
	idHex := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	id, err := obs.ParseTraceID(idHex)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad trace id %q", idHex))
		return
	}
	st, ok := rt.StitchTrace(r.Context(), id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("trace %s not retained (evicted or never kept)", idHex))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func handleRoute(rt *Router, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req serve.PredictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRouterBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	// The client's deadline bounds the whole fan-out; Remote backends
	// forward the remaining budget on X-Request-Timeout-Ms so replicas
	// drop expired waves themselves.
	ctx := r.Context()
	if h := r.Header.Get(serve.DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("%s must be a positive integer of milliseconds", serve.DeadlineHeader))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	resp, err := rt.Route(ctx, &req)
	if err != nil {
		be, ok := err.(*BackendError)
		if !ok {
			be = &BackendError{Status: http.StatusServiceUnavailable, Msg: err.Error()}
		}
		if be.RetryAfter != "" {
			w.Header().Set("Retry-After", be.RetryAfter)
		}
		writeError(w, be.Status, be.Msg)
		return
	}
	if resp.TraceID != "" {
		w.Header().Set(serve.TraceHeader, resp.TraceID)
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxMembershipBody bounds a registration-plane request body.
const maxMembershipBody = 1 << 20

// decodeMembership decodes one registration-plane POST body into req,
// answering the error itself (false) when the method or body is bad.
func decodeMembership(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMembershipBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return false
	}
	return true
}

// writeMembershipError maps membership errors to statuses: unknown member
// is 404 (the agent's re-register signal), BackendError carries its own.
func writeMembershipError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrUnknownMember) {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if be, ok := err.(*BackendError); ok {
		writeError(w, be.Status, be.Msg)
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
