package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/shelley-go/shelley/internal/obs"
)

// Client talks to a running shelleyd.
type Client struct {
	base  string
	http  *http.Client
	token string

	retry   RetryPolicy
	retryOn bool

	// sleep and randFloat are the retry machinery's test seams.
	sleep     func(context.Context, time.Duration) error
	randFloat func() float64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithToken sets the X-Shelley-Client header on every request. The
// daemon keys batch admission control by this token (falling back to
// the remote address), so clients sharing a NAT or proxy should each
// send a distinct token to get their own fair share of the pool.
func WithToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// New returns a client for the daemon at base, e.g.
// "http://127.0.0.1:9944". The default underlying http.Client has no
// timeout of its own — deadlines come from the caller's context.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:      strings.TrimRight(base, "/"),
		http:      &http.Client{},
		sleep:     sleepCtx,
		randFloat: randFloatDefault,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx daemon response.
type APIError struct {
	// StatusCode is the HTTP status (404 unknown class/module, 429
	// per-client admission refused, 503 queue saturated or draining,
	// 504 deadline exceeded, ...).
	StatusCode int

	// Message is the server's error text.
	Message string

	// RetryAfter is the daemon's backoff hint from the Retry-After
	// header (429/503 responses), already jittered server-side so a
	// fleet of refused clients does not retry in lockstep. Zero when
	// the response carried no hint.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("shelleyd: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// Temporary reports whether the request may succeed if retried after
// RetryAfter (admission, saturation, and drain refusals).
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusServiceUnavailable
}

// Check POSTs /v1/check: full verification reports for a source (or a
// resident-module fingerprint).
func (c *Client) Check(ctx context.Context, req CheckRequest) (*CheckResponse, error) {
	var resp CheckResponse
	if err := c.post(ctx, "/v1/check", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Infer POSTs /v1/infer: per-operation behavior regexes of one class.
func (c *Client) Infer(ctx context.Context, req InferRequest) (*InferResponse, error) {
	var resp InferResponse
	if err := c.post(ctx, "/v1/infer", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Trace POSTs /v1/trace: trace membership and optional flattened
// replay.
func (c *Client) Trace(ctx context.Context, req TraceRequest) (*TraceResponse, error) {
	var resp TraceResponse
	if err := c.post(ctx, "/v1/trace", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz GETs /healthz; nil means the daemon is up and accepting
// work (a draining daemon reports unhealthy).
func (c *Client) Healthz(ctx context.Context) error {
	body, err := c.get(ctx, "/healthz")
	if err != nil {
		return err
	}
	_ = body
	return nil
}

// Metrics GETs /metrics and returns the raw text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	return c.get(ctx, "/metrics")
}

// MetricValue GETs /metrics and extracts one metric by name (labels
// included, e.g. `shelleyd_requests_total{endpoint="check",code="200"}`).
// ok is false when the metric is absent.
func (c *Client) MetricValue(ctx context.Context, name string) (value float64, ok bool, err error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return 0, false, err
	}
	v, ok := ParseMetric(text, name)
	return v, ok, nil
}

// ParseMetric extracts one metric from a /metrics exposition by exact
// name (labels included). ok is false when absent.
func ParseMetric(text, name string) (value float64, ok bool) {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		metric, val, found := strings.Cut(line, " ")
		if !found || metric != name {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	}
	return 0, false
}

// WaitReady polls /healthz until the daemon answers healthy or the
// deadline passes — the startup handshake used by tests and by
// perfbench before it drives a live daemon.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for {
		if err := c.Healthz(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("client: daemon at %s not ready: %w", c.base, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// post runs a JSON POST under the retry policy. GETs (health, metrics)
// are deliberately not retried: they are observability probes whose
// callers want the instantaneous answer, not an eventually-healthy one.
func (c *Client) post(ctx context.Context, path string, req, resp any) error {
	return c.withRetry(ctx, func() error { return c.postOnce(ctx, path, req, resp) })
}

func (c *Client) postOnce(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("client: encoding %s request: %w", path, err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	c.setHeaders(httpReq)
	httpResp, err := c.http.Do(httpReq)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return err
	}
	if httpResp.StatusCode/100 != 2 {
		return apiError(httpResp, raw)
	}
	if err := json.Unmarshal(raw, resp); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	if m, ok := resp.(interface{ setTraceID(string) }); ok {
		if id := httpResp.Header.Get("X-Shelley-Trace"); id != "" {
			m.setTraceID(id)
		} else {
			m.setTraceID(httpReq.Header.Get("X-Shelley-Trace"))
		}
	}
	return nil
}

// setHeaders stamps the per-client headers every daemon request
// carries: the admission-control token (when configured) and the
// distributed-trace ID — reusing the trace of the caller's active span
// when the context carries one, originating a fresh ID otherwise, so
// every request is correlatable with the daemon's access log and
// /v1/trace-export output.
func (c *Client) setHeaders(httpReq *http.Request) {
	if c.token != "" {
		httpReq.Header.Set("X-Shelley-Client", c.token)
	}
	traceID := obs.SpanFrom(httpReq.Context()).TraceID()
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	httpReq.Header.Set("X-Shelley-Trace", traceID)
}

func (c *Client) get(ctx context.Context, path string) (string, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", err
	}
	c.setHeaders(httpReq)
	httpResp, err := c.http.Do(httpReq)
	if err != nil {
		return "", err
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return "", err
	}
	if httpResp.StatusCode/100 != 2 {
		return "", apiError(httpResp, raw)
	}
	return string(raw), nil
}

func apiError(resp *http.Response, body []byte) error {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err == nil && e.Error != "" {
		apiErr.Message = e.Error
	} else {
		apiErr.Message = strings.TrimSpace(string(body))
	}
	return apiErr
}
