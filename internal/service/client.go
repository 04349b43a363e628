package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
)

// Client is a minimal janusd API client (cmd/janusload, janusfront, and
// embedders). The zero HTTPClient uses a package-shared keep-alive
// client; synthesis waits are bounded server-side, so callers should
// not set short client timeouts — use WithTimeout only for control
// endpoints (health polls, cache lookups), never for Synthesize.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:7151".
	BaseURL string
	// HTTPClient overrides the transport; nil uses the shared keep-alive
	// client (sharedHTTPClient).
	HTTPClient *http.Client
	// Tenant, when set, is sent as X-Janus-Tenant on every request so
	// the daemon accounts this client's jobs to that tenant's scheduling
	// share (WithTenant).
	Tenant string
}

// maxClientRespBody bounds how much of a response body the client will
// buffer — mirroring the front proxy's response cap, and for the same
// reason: an unbounded ReadAll hands the peer a memory lever. A body
// over the cap is reported as a distinct "response too large" APIError
// rather than truncated into an "unexpected end of JSON input".
const maxClientRespBody = 4 << 20

// sharedHTTPClient is the default transport for every Client in the
// process: one connection pool with generous per-host keep-alives, so a
// front tier holding long-lived SSE streams plus health polls against
// the same few backends reuses connections instead of re-dialing —
// building a fresh http.Client per call would defeat pooling entirely.
var sharedHTTPClient = &http.Client{
	Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	},
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithHTTPClient substitutes the whole HTTP client (transport, timeout,
// cookie policy). The caller owns its lifecycle.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.HTTPClient = hc }
}

// WithTenant stamps every request from this client with a tenant name,
// mapping its jobs onto that tenant's scheduling share.
func WithTenant(tenant string) ClientOption {
	return func(c *Client) { c.Tenant = tenant }
}

// WithTimeout bounds every request made by this client, sharing the
// default keep-alive transport. Suitable for health polls and cache
// lookups; do not apply to clients that call Synthesize or stream
// events — those waits are legitimately long and bounded server-side.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		c.HTTPClient = &http.Client{Transport: sharedHTTPClient.Transport, Timeout: d}
	}
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{BaseURL: strings.TrimRight(baseURL, "/")}
	for _, o := range opts {
		o(c)
	}
	return c
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return sharedHTTPClient
}

// APIError reports a non-2xx API answer, preserving the code so
// callers can react to backpressure (429) and drain (503) distinctly.
// RequestID, when the server sent one, names this request in the
// daemon's logs and flight recorder.
type APIError struct {
	Code       int
	Message    string
	RequestID  string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("janusd: %d: %s", e.Code, e.Message)
}

func (c *Client) do(ctx context.Context, method, path string, body, into any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set("X-Janus-Tenant", c.Tenant)
	}
	// Forward the caller's trace context so the receiving daemon roots
	// its spans under ours (peer cache fills inherit the filling
	// request's context this way).
	if tc, ok := obsv.TraceContextFromContext(ctx); ok && tc.Valid() {
		req.Header.Set(obsv.TraceHeader, tc.String())
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Read one byte past the cap so truncation is detectable: a body
	// exactly at the limit parses, one over it errors distinctly instead
	// of surfacing as a confusing JSON parse failure on a cut-off body.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxClientRespBody+1))
	if err != nil {
		return err
	}
	if len(data) > maxClientRespBody {
		return &APIError{
			Code:      resp.StatusCode,
			Message:   fmt.Sprintf("response too large (over %d bytes)", maxClientRespBody),
			RequestID: resp.Header.Get("X-Request-Id"),
		}
	}
	if resp.StatusCode >= 400 {
		se := &APIError{Code: resp.StatusCode, RequestID: resp.Header.Get("X-Request-Id")}
		var r Response
		if json.Unmarshal(data, &r) == nil && r.Error != "" {
			se.Message = r.Error
			if r.RequestID != "" {
				se.RequestID = r.RequestID
			}
		} else {
			se.Message = strings.TrimSpace(string(data))
		}
		se.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		return se
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(data, into)
}

// Metrics fetches the daemon's metrics-registry snapshot (GET /metrics,
// the JSON form). The front tier re-exports these in its fleet
// Prometheus view, tagged with the backend's id.
func (c *Client) Metrics(ctx context.Context) (*obsv.Snapshot, error) {
	var s obsv.Snapshot
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseRetryAfter is the exported form of parseRetryAfter, for callers
// (the front tier's 429 pacing) that read Retry-After off raw responses
// rather than through this client.
func ParseRetryAfter(header string, now time.Time) time.Duration {
	return parseRetryAfter(header, now)
}

// parseRetryAfter reads a Retry-After header per RFC 7231 §7.1.3: a
// non-negative integer delay in seconds, or an HTTP-date (converted to
// a delay relative to now). Anything else — empty, fractional,
// negative, duration-suffixed, or a delay too long for a time.Duration —
// yields 0, meaning "retry policy's choice". time.ParseDuration on the
// header plus "s" would mis-read non-integer values (a proxy's "2m"
// becomes "2ms", a 2-millisecond hot retry loop) and reject HTTP-dates.
func parseRetryAfter(header string, now time.Time) time.Duration {
	if header == "" {
		return 0
	}
	if secs, err := strconv.Atoi(header); err == nil {
		if secs < 0 || int64(secs) > math.MaxInt64/int64(time.Second) {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(header); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// Synthesize submits a request and waits for the response (which may be
// a 202-style poll handle when the request was async or timed out; check
// Status).
func (c *Client) Synthesize(ctx context.Context, req Request) (*Response, error) {
	var resp Response
	if err := c.do(ctx, http.MethodPost, "/v1/synthesize", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SynthesizeBatch submits a multi-function batch; the Response carries
// the packed result in Batch (or a poll handle; check Status).
func (c *Client) SynthesizeBatch(ctx context.Context, req BatchRequest) (*Response, error) {
	var resp Response
	if err := c.do(ctx, http.MethodPost, "/v1/synthesize/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Job polls a job by id.
func (c *Client) Job(ctx context.Context, id string) (*Response, error) {
	var resp Response
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// JobEvents long-polls a job's progress stream: events with seq > after,
// waiting up to wait for the first one. Page.Terminal reports the stream
// is over; pass Page.Next as the following call's after. (SSE is the
// richer interface for humans; this is the mechanical one janusload and
// CI scripts use.)
func (c *Client) JobEvents(ctx context.Context, id string, after uint64, wait time.Duration) (*EventsPage, error) {
	var page EventsPage
	path := fmt.Sprintf("/v1/jobs/%s/events?after=%d&wait=%d",
		id, after, wait.Milliseconds())
	if err := c.do(ctx, http.MethodGet, path, nil, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// CacheLookup asks the daemon's cache for an answer to fnKey that is
// compatible with the given budget (the peer cache-fill protocol). A
// clean miss returns (nil, nil); errors are transport or server
// failures.
func (c *Client) CacheLookup(ctx context.Context, fnKey string, timeoutMS, maxConflicts int64) (*CacheEntry, error) {
	var ent CacheEntry
	path := fmt.Sprintf("/v1/cache/%s?timeout_ms=%d&max_conflicts=%d",
		fnKey, timeoutMS, maxConflicts)
	if err := c.do(ctx, http.MethodGet, path, nil, &ent); err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.Code == http.StatusNotFound {
			return nil, nil
		}
		return nil, err
	}
	return &ent, nil
}

// Health reads /healthz (an error with Code 503 means draining).
func (c *Client) Health(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ServerStats reads /v1/stats: queue health plus SLO burn rates.
func (c *Client) ServerStats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// JobTrace fetches a finished job's span trace as raw JSONL.
func (c *Client) JobTrace(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		se := &APIError{Code: resp.StatusCode, RequestID: resp.Header.Get("X-Request-Id")}
		var r Response
		if json.Unmarshal(data, &r) == nil && r.Error != "" {
			se.Message = r.Error
		} else {
			se.Message = strings.TrimSpace(string(data))
		}
		return nil, se
	}
	return data, nil
}
