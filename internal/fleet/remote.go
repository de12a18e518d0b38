package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// Remote is the HTTP replica backend: one ioserve process addressed over
// the existing serving surface. The router's trace ID travels on
// X-Trace-Id (the replica records it as its trace parent) and the
// remaining context deadline on X-Request-Timeout-Ms (the replica drops
// expired waves itself instead of computing answers nobody will read).
type Remote struct {
	name    string
	baseURL string
	client  *http.Client
	// adminToken unlocks the replica's admin-gated trace endpoints when the
	// fleet runs with admin authn. Empty is fine: FetchTrace then degrades
	// to a missing hop rather than failing the stitch.
	adminToken string
}

// RemoteConfig tunes a Remote backend.
type RemoteConfig struct {
	// Client defaults to an http.Client with a 10s timeout.
	Client *http.Client
	// AdminToken authorizes the replica's admin-gated stats endpoints.
	AdminToken string
}

// NewRemote wraps an ioserve base URL (e.g. "http://10.0.0.7:8080") as a
// replica backend.
func NewRemote(name, baseURL string, cfg RemoteConfig) *Remote {
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Remote{name: name, baseURL: baseURL, client: client, adminToken: cfg.AdminToken}
}

// Name implements Predictor.
func (r *Remote) Name() string { return r.name }

// Predict implements Predictor over POST /v1/predict.
func (r *Remote) Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	// Not pooled: the transport may still read a request body after Do
	// returns (a retry on a stale keep-alive connection re-reads it).
	size := 64
	for _, row := range req.Rows {
		size += 24*len(row) + 2
	}
	body, err := serve.AppendPredictRequest(make([]byte, 0, size+24*len(req.Row)), req)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding request for %s: %w", r.name, err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.baseURL+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if id := obs.TraceParent(ctx); id != 0 {
		httpReq.Header.Set(serve.TraceHeader, obs.FormatTraceID(id))
	}
	// The client's deadline minus the router time already spent is the
	// replica's whole budget. An exhausted budget fails fast here — sending
	// the request would only have the replica compute an answer nobody can
	// read, and the wrapped DeadlineExceeded keeps the router from counting
	// the client's expired budget against this replica's breaker.
	if ms, ok := remainingBudgetMs(ctx, time.Now()); ok {
		if ms <= 0 {
			return nil, fmt.Errorf("fleet: replica %s: request budget exhausted before dispatch: %w",
				r.name, context.DeadlineExceeded)
		}
		httpReq.Header.Set(serve.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := r.client.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s: %w", r.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, backendErrorFrom(resp)
	}
	out, err := serve.ReadPredictResponse(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s sent a bad response body: %w", r.name, err)
	}
	return out, nil
}

// backendErrorFrom converts a non-200 replica response, preserving the
// status and any Retry-After advice.
func backendErrorFrom(resp *http.Response) *BackendError {
	msg := "(no body)"
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<10)); err == nil && len(b) > 0 {
		var ok bool
		if msg, ok = serve.ErrorMessage(b); !ok {
			msg = string(b)
		}
	}
	return &BackendError{
		Status:     resp.StatusCode,
		RetryAfter: resp.Header.Get("Retry-After"),
		Msg:        msg,
	}
}

// Health implements Predictor over GET /healthz.
func (r *Remote) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.baseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: replica %s health: %w", r.name, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: replica %s health: status %d", r.name, resp.StatusCode)
	}
	return nil
}

// remainingBudgetMs converts the context deadline into the milliseconds of
// budget left as of now (false when the context carries no deadline). The
// subtraction of elapsed router time happens implicitly: the handler set
// the deadline when the request arrived, so time.Until at dispatch is the
// client's budget minus everything the router already spent.
func remainingBudgetMs(ctx context.Context, now time.Time) (int64, bool) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return dl.Sub(now).Milliseconds(), true
}

// maxMetricsBody bounds one replica metrics scrape.
const maxMetricsBody = 4 << 20

// Metrics implements Predictor over GET /metrics: one plain scrape of the
// replica's whole exposition, replacing the old two-request
// /v1/resilience + /v1/versions stats poll.
func (r *Remote) Metrics(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s /metrics: %w", r.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("fleet: replica %s /metrics: status %d", r.name, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxMetricsBody))
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s /metrics: %w", r.name, err)
	}
	return body, nil
}

// FetchTrace implements Predictor over the replica's admin-gated
// GET /v1/trace/{id}. 404 (not retained / evicted) and 409 (tracing
// disabled on the replica) both mean the trace is unavailable, not that
// the replica failed.
func (r *Remote) FetchTrace(ctx context.Context, id uint64) (*obs.TraceDetail, error) {
	var detail obs.TraceDetail
	err := r.getJSON(ctx, "/v1/trace/"+obs.FormatTraceID(id), true, &detail)
	if err != nil {
		if be, ok := err.(*BackendError); ok &&
			(be.Status == http.StatusNotFound || be.Status == http.StatusConflict) {
			return nil, ErrTraceNotFound
		}
		return nil, err
	}
	return &detail, nil
}

// getJSON fetches one replica endpoint into out.
func (r *Remote) getJSON(ctx context.Context, path string, admin bool, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.baseURL+path, nil)
	if err != nil {
		return err
	}
	if admin && r.adminToken != "" {
		req.Header.Set("X-Admin-Token", r.adminToken)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: replica %s %s: %w", r.name, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return backendErrorFrom(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
