package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/service"
)

// maxProxyReqBody bounds inbound request payloads (the same bound
// janusd itself applies); maxProxyRespBody bounds buffered backend
// responses, which carry rendered lattices and so get a looser limit.
// A response over its bound is a proxy error — relaying a silently
// truncated body with the backend's 2xx status would hand the client
// corrupt JSON.
const (
	maxProxyReqBody      = 1 << 20
	maxProxyBatchReqBody = 4 << 20 // batches carry up to 64 PLA texts
	maxProxyRespBody     = 4 << 20
)

// jobIDSep joins the owning shard's ID and the backend-local job id in
// client-visible job ids ("localhost:7151~jab12cd-4"), so every poll,
// event stream, or trace fetch routes straight to the owning backend
// with no routing table — the id IS the route. '~' is URL-unreserved
// and appears in neither host:port IDs nor janusd job ids.
const jobIDSep = "~"

// proxyHTTP is the long-request client: no timeout (synthesis waits
// and SSE streams are bounded server-side / by the client connection),
// generous keep-alives toward the same few backends.
var proxyHTTP = &http.Client{
	Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	},
}

// errBodyTooLarge marks a backend response over maxProxyRespBody.
var errBodyTooLarge = fmt.Errorf("front: backend response exceeds %d bytes", maxProxyRespBody)

// readProxyBody buffers a backend response body, failing loudly when it
// exceeds the bound instead of truncating it.
func readProxyBody(body io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(body, maxProxyRespBody+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxProxyRespBody {
		return nil, errBodyTooLarge
	}
	return data, nil
}

// isDialError reports whether a round-trip error happened while
// establishing the connection — before any bytes could have reached the
// backend — which is the only failure mode where failing over to
// another backend cannot duplicate work already started.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// Handler returns the front tier's HTTP API — the same surface janusd
// serves, routed by function key:
//
//	POST /v1/synthesize         route to the key's owner (failover down the rank)
//	GET  /v1/jobs/{id}          routed by the shard embedded in the job id
//	GET  /v1/jobs/{id}/events   SSE/long-poll passthrough to the owning shard
//	GET  /v1/jobs/{id}/trace    backend trace stitched under the front's own spans
//	GET  /v1/stats              merged backend stats + the front's own block
//	GET  /metrics/prom          fleet Prometheus view (front + backends, backend-labeled)
//	GET  /healthz               front health (503 when no backend is routable)
//	/metrics, /debug/…          the obsv debug surface
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", f.instrument("synthesize", slog.LevelInfo, f.handleSynthesize))
	mux.HandleFunc("POST /v1/synthesize/batch", f.instrument("synthesize_batch", slog.LevelInfo, f.handleSynthesizeBatch))
	mux.HandleFunc("GET /v1/jobs/{id}", f.instrument("jobs", slog.LevelInfo, f.handleJob))
	mux.HandleFunc("GET /v1/jobs/{id}/events", f.instrument("events", slog.LevelDebug, f.handleJobEvents))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", f.instrument("trace", slog.LevelInfo, f.handleJobTrace))
	mux.HandleFunc("GET /v1/stats", f.instrument("stats", slog.LevelDebug, f.handleStats))
	mux.HandleFunc("GET /metrics/prom", f.instrument("metrics_prom", slog.LevelDebug, f.handleMetricsProm))
	mux.HandleFunc("GET /healthz", f.instrument("healthz", slog.LevelDebug, f.handleHealthz))
	mux.Handle("/metrics", obsv.DebugHandler(nil))
	mux.Handle("/debug/", obsv.DebugHandler(nil))
	return mux
}

// statusWriter captures the status code for access logs; Unwrap lets
// http.ResponseController reach the connection's Flusher for SSE.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(c int) {
	w.code = c
	w.ResponseWriter.WriteHeader(c)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument resolves the request id (honoring a plausible inbound
// X-Request-Id, minting otherwise — the same id is forwarded to the
// backend, so one id names the request across the whole tier) and
// writes one access log line.
func (f *Front) instrument(endpoint string, lvl slog.Level, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := obsv.SanitizeRequestID(r.Header.Get("X-Request-Id"))
		if id == "" {
			id = f.newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(obsv.ContextWithRequestID(r.Context(), id)))
		d := time.Since(start)
		hProxyNS.Observe(int64(d))
		f.log.Log(r.Context(), lvl, "http",
			"endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
			"status", sw.code, "request_id", id, "dur_ms", float64(d)/1e6)
	}
}

// handleSynthesize routes a synthesis to its function key's owner, with
// deterministic failover down the rendezvous rank and Retry-After-paced
// retries on backpressure. When the key's owner changed since the last
// membership change, the forward carries an X-Janus-Fill-From hint
// naming the previous owner so the new one can fill its cache instead
// of re-solving.
func (f *Front) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	reqID := obsv.RequestIDFromContext(r.Context())
	f.nRouted.Add(1)
	mRequests.Inc()
	var req service.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxProxyReqBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), reqID)
		return
	}
	fnKey, err := service.FnKeyOf(req)
	if err != nil {
		// The backend would reject it identically; failing here keeps bad
		// payloads off the network and gives the same 400 shape.
		writeError(w, http.StatusBadRequest, err.Error(), reqID)
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), reqID)
		return
	}
	f.routeSynthesize(w, r, "/v1/synthesize", fnKey, body, req.Async, true, reqID)
}

// handleSynthesizeBatch routes a multi-function batch by its canonical
// batch key — the same rendezvous hash over the same keyspace as single
// requests (batch keys are domain-prefixed, so they never collide with
// single-function keys), giving an identical batch a sticky owner whose
// coalescing and cache apply. Batches skip the peer-fill hint: the
// backend's batch path does not consult peers, and the per-function
// entries a finished batch unpacks feed the single-function fill
// machinery instead.
func (f *Front) handleSynthesizeBatch(w http.ResponseWriter, r *http.Request) {
	reqID := obsv.RequestIDFromContext(r.Context())
	f.nRouted.Add(1)
	mRequests.Inc()
	var req service.BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxProxyBatchReqBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), reqID)
		return
	}
	batchKey, err := service.BatchKeyOf(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), reqID)
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), reqID)
		return
	}
	f.routeSynthesize(w, r, "/v1/synthesize/batch", batchKey, body, req.Async, false, reqID)
}

// routeSynthesize is the shared forwarding tail of both synthesize
// routes: rank the key's owners, walk the rank with failover, and relay
// the first answer. wantFill enables the reshard cache-fill hint (single
// requests only).
//
// The walk is recorded as the front's half of the fleet trace: a Route
// root span (owner, fn_key, tenant) with one Attempt child per backend
// tried, each carrying the X-Janus-Trace context the backend roots its
// Job span under. The request id doubles as the trace id — it already
// obeys the trace-id charset and names the request end to end. The
// finished tree is retained keyed by the client-visible job id, so
// GET /v1/jobs/{id}/trace can stitch it onto the backend's stream.
func (f *Front) routeSynthesize(w http.ResponseWriter, r *http.Request, path, key string, body []byte, async, wantFill bool, reqID string) {
	w.Header().Set("X-Janus-Fn-Key", key)
	tenant := r.Header.Get("X-Janus-Tenant")

	trace := obsv.NewTraceBuffer(0, 0)
	tracer := obsv.NewTracer(trace)
	tracer.SetTrace(reqID, "front")
	route := obsv.Start(tracer, nil, "Route")
	route.SetStr("fn_key", fnPrefix(key))
	if tenant != "" {
		route.SetStr("tenant", tenant)
	}

	rank := f.shards.rank(key)
	if len(rank) == 0 {
		f.nNoBackend.Add(1)
		mNoBackend.Inc()
		writeError(w, http.StatusServiceUnavailable, "front: no healthy backends", reqID)
		return
	}
	route.SetStr("owner", rank[0].ID)
	route.SetInt("rank", int64(len(rank)))
	prev, hasPrev := f.shards.prevOwner(key)
	_, live := f.shards.snapshot()

	jobID, outcome := "", "error"
	var lastErr error
	for attempt, b := range rank {
		if attempt > 0 {
			f.nFailovers.Add(1)
			mFailovers.Inc()
			f.log.Warn("failover", "fn_key", fnPrefix(key), "request_id", reqID,
				"to", b.ID, "attempt", attempt, "err", errString(lastErr))
		}
		// Hint at the previous owner when it is a different, live backend
		// — exactly the reshard case where the target's cache is cold but
		// a peer's is warm.
		fill := ""
		if wantFill && hasPrev && prev.ID != b.ID && live[prev.ID] {
			fill = prev.URL
		}
		asp := route.Child("Attempt")
		asp.SetStr("backend", b.ID)
		if fill != "" {
			asp.SetStr("fill_from", fill)
		}
		done, id, err := f.forwardSynthesize(r.Context(), w, b, path, body, reqID, fill, tenant, async, asp)
		if err != nil {
			asp.SetStr("error", errString(err))
		}
		asp.End()
		if done {
			jobID, outcome = id, "relayed"
			break
		}
		lastErr = err
	}
	if outcome != "relayed" {
		mProxyErrors.Inc()
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("front: all backends failed: %v", lastErr), reqID)
	}
	route.SetStr("outcome", outcome)
	route.End()
	if jobID != "" {
		// Keyed by the shard-qualified id the client polls with, so the
		// trace endpoint finds the front half without a routing table.
		f.traces.Put(jobID, trace)
	}
}

// forwardSynthesize tries one backend, pacing bounded 429 retries by
// its Retry-After. It reports done=true when a response (success OR a
// passthrough error like 400/429) was written; false asks the caller to
// fail over to the next backend in rank.
//
// Failover is unconditional only while the connection is being
// established — the backend saw nothing, so a re-send is free. Once the
// request may have been delivered, re-sending an async synthesize would
// start a second long-running job whose id the client never learns, so
// post-send errors on async requests answer 502 and leave the retry
// decision to the client. Sync requests still fail over: the abandoned
// attempt may solve on in the background (its result lands in that
// backend's cache, so the work is not wasted), and the client gets
// exactly one answer.
func (f *Front) forwardSynthesize(ctx context.Context, w http.ResponseWriter, b Backend, path string, body []byte, reqID, fill, tenant string, async bool, asp *obsv.Span) (bool, string, error) {
	var lastErr error
	for try := 0; ; try++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			b.URL+path, bytes.NewReader(body))
		if err != nil {
			return false, "", err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", reqID)
		// The backend roots its Job span under this attempt, so a stitched
		// trace shows exactly which forward did the work.
		if tc := (obsv.TraceContext{TraceID: reqID, Parent: asp.ID()}); tc.Valid() {
			req.Header.Set(obsv.TraceHeader, tc.String())
		}
		if tenant != "" {
			// The front is tenant-transparent: the scheduling share is a
			// backend decision, the front just relays the claim.
			req.Header.Set("X-Janus-Tenant", tenant)
		}
		if fill != "" {
			req.Header.Set("X-Janus-Fill-From", fill)
			f.nFillHints.Add(1)
			mFillHints.Inc()
			fill = "" // one hint per request is enough; retries skip it
		}
		resp, err := proxyHTTP.Do(req)
		if err != nil {
			if isDialError(err) || !async {
				return false, "", err
			}
			mProxyErrors.Inc()
			writeError(w, http.StatusBadGateway,
				fmt.Sprintf("front: %s failed after accepting the request: %v", b.ID, err), reqID)
			return true, "", err
		}
		data, err := readProxyBody(resp.Body)
		resp.Body.Close()
		if err != nil {
			if errors.Is(err, errBodyTooLarge) {
				// Every backend would produce the same over-size answer for
				// this function; failing over just re-solves it for nothing.
				mProxyErrors.Inc()
				writeError(w, http.StatusBadGateway, err.Error(), reqID)
				return true, "", err
			}
			if !async {
				return false, "", err
			}
			mProxyErrors.Inc()
			writeError(w, http.StatusBadGateway,
				fmt.Sprintf("front: %s failed after accepting the request: %v", b.ID, err), reqID)
			return true, "", err
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests && try < f.cfg.Retry429:
			f.nRetries.Add(1)
			mRetries429.Inc()
			wait := service.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
			if wait <= 0 {
				wait = 200 * time.Millisecond
			}
			if wait > f.cfg.RetryAfterCap {
				wait = f.cfg.RetryAfterCap
			}
			rsp := asp.Child("Retry429")
			rsp.SetInt("wait_ms", wait.Milliseconds())
			select {
			case <-time.After(wait):
				rsp.End()
				continue
			case <-ctx.Done():
				rsp.End()
				return false, "", ctx.Err()
			}
		case resp.StatusCode >= 500:
			// The backend is there but unwell (draining 503, internal
			// error): deterministic fallback takes over.
			lastErr = fmt.Errorf("%s: %s", b.ID, strings.TrimSpace(firstLine(data)))
			return false, "", lastErr
		default:
			// 2xx, 400s, or an exhausted 429: the client's answer. Rewrite
			// the job id so follow-ups route by shard.
			return true, f.writeProxied(w, resp, data, b), nil
		}
	}
}

// writeProxied relays a backend response, rewriting job ids to embed
// the owning shard; the rewritten id (or "") is returned so the caller
// can key the request's front trace by it. Unparseable bodies relay
// byte-for-byte.
func (f *Front) writeProxied(w http.ResponseWriter, resp *http.Response, data []byte, b Backend) string {
	copyHeader(w, resp, "Retry-After")
	copyHeader(w, resp, "X-Janus-Fn-Key")
	var jr service.Response
	if json.Unmarshal(data, &jr) == nil {
		if jr.JobID != "" {
			jr.JobID = b.ID + jobIDSep + jr.JobID
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		json.NewEncoder(w).Encode(jr) //nolint:errcheck // client gone is not actionable
		return jr.JobID
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(data) //nolint:errcheck // client gone is not actionable
	return ""
}

// splitJobID resolves a front job id to its owning backend and the
// backend-local id.
func (f *Front) splitJobID(id string) (*backendState, string, bool) {
	i := strings.LastIndex(id, jobIDSep)
	if i <= 0 || i == len(id)-1 {
		return nil, "", false
	}
	st, ok := f.byID[id[:i]]
	return st, id[i+1:], ok
}

// handleJob proxies a poll to the shard embedded in the job id. The
// backend is tried even when marked unhealthy: job state lives only
// there, and a probe-lagged recovery should not 404 a real job.
func (f *Front) handleJob(w http.ResponseWriter, r *http.Request) {
	reqID := obsv.RequestIDFromContext(r.Context())
	st, local, ok := f.splitJobID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "front: unknown shard in job id", reqID)
		return
	}
	f.proxyGet(w, r, st.backend, "/v1/jobs/"+local, reqID, true)
}

// handleJobTrace serves a job's fleet trace: the backend's JSONL stream
// stitched under the front's own Route/Attempt spans when the front
// still holds them (one trace id, the backend Job re-rooted under the
// attempt that carried it — obsv.StitchTraces). Without a front half —
// the job was not routed here, or the ring evicted it — the backend
// trace passes through unchanged.
func (f *Front) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	reqID := obsv.RequestIDFromContext(r.Context())
	full := r.PathValue("id")
	st, local, ok := f.splitJobID(full)
	if !ok {
		writeError(w, http.StatusNotFound, "front: unknown shard in job id", reqID)
		return
	}
	fb, hasFront := f.traces.Get(full)
	if !hasFront {
		f.proxyGet(w, r, st.backend, "/v1/jobs/"+local+"/trace", reqID, false)
		return
	}
	b := st.backend
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		b.URL+"/v1/jobs/"+local+"/trace", nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), reqID)
		return
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := proxyHTTP.Do(req)
	if err != nil {
		mProxyErrors.Inc()
		writeError(w, http.StatusBadGateway, fmt.Sprintf("front: %s unreachable: %v", b.ID, err), reqID)
		return
	}
	defer resp.Body.Close()
	data, err := readProxyBody(resp.Body)
	if err != nil {
		mProxyErrors.Inc()
		writeError(w, http.StatusBadGateway, err.Error(), reqID)
		return
	}
	if resp.StatusCode != http.StatusOK {
		// The backend has no trace (404/409/410): relay its verdict — a
		// front-only half would claim a fleet trace that lost its work.
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(data) //nolint:errcheck // client gone is not actionable
		return
	}
	stitched, err := obsv.StitchTraces(fb.Bytes(), data)
	if err != nil {
		// A malformed backend stream still reaches the client raw; the
		// stitch is best-effort decoration.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.Write(data) //nolint:errcheck // client gone is not actionable
		return
	}
	mTracesStitched.Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.Write(stitched) //nolint:errcheck // client gone is not actionable
}

// proxyGet relays one GET; rewrite re-embeds the shard in job ids.
func (f *Front) proxyGet(w http.ResponseWriter, r *http.Request, b Backend, path, reqID string, rewrite bool) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.URL+path, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), reqID)
		return
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := proxyHTTP.Do(req)
	if err != nil {
		mProxyErrors.Inc()
		writeError(w, http.StatusBadGateway, fmt.Sprintf("front: %s unreachable: %v", b.ID, err), reqID)
		return
	}
	defer resp.Body.Close()
	data, err := readProxyBody(resp.Body)
	if err != nil {
		mProxyErrors.Inc()
		writeError(w, http.StatusBadGateway, err.Error(), reqID)
		return
	}
	if rewrite {
		f.writeProxied(w, resp, data, b)
		return
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(data) //nolint:errcheck // client gone is not actionable
}

// handleJobEvents proxies a job's progress stream. The ?wait= long-poll
// form buffers one JSON page (rewriting the job id); the SSE form
// streams chunk by chunk with an explicit flush per read so events
// cross the proxy as they happen, honoring Last-Event-ID for resume.
func (f *Front) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	reqID := obsv.RequestIDFromContext(r.Context())
	st, local, ok := f.splitJobID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "front: unknown shard in job id", reqID)
		return
	}
	b := st.backend
	url := b.URL + "/v1/jobs/" + local + "/events"
	if q := r.URL.RawQuery; q != "" {
		url += "?" + q
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), reqID)
		return
	}
	req.Header.Set("X-Request-Id", reqID)
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		req.Header.Set("Last-Event-ID", lei)
	}
	resp, err := proxyHTTP.Do(req)
	if err != nil {
		mProxyErrors.Inc()
		writeError(w, http.StatusBadGateway, fmt.Sprintf("front: %s unreachable: %v", b.ID, err), reqID)
		return
	}
	defer resp.Body.Close()

	if r.URL.Query().Has("wait") {
		// Long-poll: one buffered JSON page.
		data, err := readProxyBody(resp.Body)
		if err != nil {
			mProxyErrors.Inc()
			writeError(w, http.StatusBadGateway, err.Error(), reqID)
			return
		}
		var page service.EventsPage
		if resp.StatusCode == http.StatusOK && json.Unmarshal(data, &page) == nil {
			page.JobID = b.ID + jobIDSep + page.JobID
			writeJSON(w, http.StatusOK, page)
			return
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(data) //nolint:errcheck // client gone is not actionable
		return
	}

	// SSE: stream through, flushing every read so a proxied watcher sees
	// events with the same latency as a direct one.
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(resp.StatusCode)
	fl := http.NewResponseController(w)
	fl.Flush() //nolint:errcheck // no streaming support surfaces on the copy below
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			fl.Flush() //nolint:errcheck // client gone surfaces via r.Context
		}
		if err != nil {
			return
		}
	}
}

// Stats is the front's /v1/stats body: its own routing state, one row
// per backend, and fleet totals.
type Stats struct {
	Front    FrontInfo       `json:"front"`
	Backends []BackendStatus `json:"backends"`
	Totals   Totals          `json:"totals"`
}

// FrontInfo is the front tier's own state and counters.
type FrontInfo struct {
	Epoch           uint64 `json:"epoch"`
	Backends        int    `json:"backends"`
	HealthyBackends int    `json:"healthy_backends"`
	Routed          int64  `json:"routed_total"`
	Failovers       int64  `json:"failovers_total"`
	Retries429      int64  `json:"retries_429_total"`
	FillHints       int64  `json:"fill_hints_total"`
	NoBackend       int64  `json:"no_backend_total"`
	TracedJobs      int    `json:"traced_jobs"`
	TracesStitched  int64  `json:"traces_stitched_total"`
	// StatsLaggards names the backends that missed their per-backend
	// deadline (StatsTimeout) in this stats fan-out: their rows carry the
	// poller's cached view instead of live numbers, and the totals
	// exclude them. Only set on the /v1/stats live merge.
	StatsLaggards []string `json:"stats_laggards,omitempty"`
}

// BackendStatus is one backend's view from the front.
type BackendStatus struct {
	ID              string `json:"id"`
	URL             string `json:"url"`
	Healthy         bool   `json:"healthy"`
	Draining        bool   `json:"draining,omitempty"`
	ConsecFailures  int    `json:"consecutive_failures,omitempty"`
	MembershipFlips int    `json:"membership_flips,omitempty"`
	QueueDepth      int    `json:"queue_depth"`
	QueueCapacity   int    `json:"queue_capacity,omitempty"`
	Error           string `json:"error,omitempty"`
	// StatsMS is how long this backend's share of the live stats fan-out
	// took (only on the stats endpoint; the laggard diagnosis in numbers).
	StatsMS float64 `json:"stats_ms,omitempty"`
	// Stats is the backend's own /v1/stats body (only on the stats
	// endpoint's live fan-out; nil when the backend was unreachable).
	Stats *service.Stats `json:"stats,omitempty"`
}

// Totals sums the reachable backends' queue capacity and load. Tenants
// merges the per-backend scheduler rows by tenant name — counters and
// depths sum; weight and share are per-backend configuration, so the
// first reachable backend's values stand for the fleet (deployments are
// expected to configure tenancy uniformly).
type Totals struct {
	QueueDepth    int                   `json:"queue_depth"`
	QueueCapacity int                   `json:"queue_capacity"`
	Running       int64                 `json:"running_jobs"`
	Workers       int                   `json:"workers"`
	DiskEntries   int                   `json:"disk_entries"`
	Tenants       []service.TenantStats `json:"tenants,omitempty"`
}

// statsSnapshot builds the front-and-membership view from the poller's
// cached state (no network).
func (f *Front) statsSnapshot() Stats {
	epoch, live := f.shards.snapshot()
	out := Stats{}
	healthy := 0
	for _, st := range f.states {
		st.mu.Lock()
		bs := BackendStatus{
			ID: st.backend.ID, URL: st.backend.URL,
			Healthy: live[st.backend.ID], Draining: st.draining,
			ConsecFailures: st.fails, MembershipFlips: st.flips,
			QueueDepth: st.queueDepth, QueueCapacity: st.queueCap,
			Error: st.lastErr,
		}
		st.mu.Unlock()
		if bs.Healthy {
			healthy++
		}
		out.Backends = append(out.Backends, bs)
	}
	out.Front = FrontInfo{
		Epoch: epoch, Backends: len(f.states), HealthyBackends: healthy,
		Routed: f.nRouted.Load(), Failovers: f.nFailovers.Load(),
		Retries429: f.nRetries.Load(), FillHints: f.nFillHints.Load(),
		NoBackend:  f.nNoBackend.Load(),
		TracedJobs: len(f.traces.IDs()), TracesStitched: mTracesStitched.Value(),
	}
	return out
}

// handleStats merges a live fan-out of every backend's /v1/stats into
// the front's own snapshot. Each backend gets its own deadline
// (StatsTimeout), so one stalled member delays the merge by at most
// that much; members that miss it are named in front.stats_laggards and
// keep the poller's cached row.
func (f *Front) handleStats(w http.ResponseWriter, r *http.Request) {
	out := f.statsSnapshot()
	var wg sync.WaitGroup
	stats := make([]*service.Stats, len(f.states))
	durs := make([]time.Duration, len(f.states))
	for i, st := range f.states {
		wg.Add(1)
		go func(i int, st *backendState) {
			defer wg.Done()
			bctx, cancel := context.WithTimeout(r.Context(), f.cfg.StatsTimeout)
			defer cancel()
			t0 := time.Now()
			s, err := st.client.ServerStats(bctx)
			durs[i] = time.Since(t0)
			if err == nil {
				stats[i] = s
			}
		}(i, st)
	}
	wg.Wait()
	for i, s := range stats {
		out.Backends[i].StatsMS = float64(durs[i]) / 1e6
		if s == nil {
			out.Front.StatsLaggards = append(out.Front.StatsLaggards, f.states[i].backend.ID)
			mStatsLaggards.Inc()
		}
	}
	byTenant := map[string]*service.TenantStats{}
	var tenantOrder []string
	for i, s := range stats {
		if s == nil {
			continue
		}
		out.Backends[i].Stats = s
		out.Backends[i].QueueDepth = s.QueueDepth
		out.Backends[i].QueueCapacity = s.QueueCapacity
		out.Totals.QueueDepth += s.QueueDepth
		out.Totals.QueueCapacity += s.QueueCapacity
		out.Totals.Running += s.Running
		out.Totals.Workers += s.Workers
		out.Totals.DiskEntries += s.DiskEntries
		if s.Scheduler == nil {
			continue
		}
		for _, ts := range s.Scheduler.Tenants {
			agg, ok := byTenant[ts.Name]
			if !ok {
				// Weight/share/caps are per-backend configuration; the first
				// reachable backend's values stand for the (uniform) fleet.
				cp := ts
				byTenant[ts.Name] = &cp
				tenantOrder = append(tenantOrder, ts.Name)
				continue
			}
			agg.QueueDepth += ts.QueueDepth
			agg.InFlight += ts.InFlight
			agg.Admitted += ts.Admitted
			agg.Dispatched += ts.Dispatched
			agg.Completed += ts.Completed
			agg.Shed += ts.Shed
		}
	}
	for _, name := range tenantOrder {
		out.Totals.Tenants = append(out.Totals.Tenants, *byTenant[name])
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetricsProm serves the fleet Prometheus view: the front's own
// registry next to every reachable backend's snapshot tagged
// backend="id", merged into one exposition (one # TYPE line per family
// — obsv.WriteFleetProm). The fan-out mirrors handleStats: per-backend
// deadline, unreachable members simply contribute no series this
// scrape (Prometheus treats the gap as staleness, which is the truth).
func (f *Front) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	var wg sync.WaitGroup
	backendSnaps := make([]*obsv.Snapshot, len(f.states))
	for i, st := range f.states {
		wg.Add(1)
		go func(i int, st *backendState) {
			defer wg.Done()
			bctx, cancel := context.WithTimeout(r.Context(), f.cfg.StatsTimeout)
			defer cancel()
			s, err := st.client.Metrics(bctx)
			if err == nil {
				backendSnaps[i] = s
			}
		}(i, st)
	}
	wg.Wait()
	snaps := []obsv.LabeledSnapshot{{Snapshot: obsv.Default.Snapshot()}}
	for i, s := range backendSnaps {
		if s == nil {
			continue
		}
		snaps = append(snaps, obsv.LabeledSnapshot{
			Snapshot: *s,
			Labels:   []string{"backend", f.states[i].backend.ID},
		})
	}
	w.Header().Set("Content-Type", obsv.PromContentType)
	obsv.WriteFleetProm(w, snaps) //nolint:errcheck // client gone is not actionable
}

// handleHealthz answers from the poller's cached state: 200 while at
// least one backend is routable, 503 otherwise — a front with no
// backends must look down to ITS load balancer.
func (f *Front) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	out := f.statsSnapshot()
	code := http.StatusOK
	if out.Front.HealthyBackends == 0 {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, out)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is not actionable
}

func writeError(w http.ResponseWriter, code int, msg, reqID string) {
	writeJSON(w, code, service.Response{Status: service.StatusError, Error: msg, RequestID: reqID})
}

// copyHeader relays one named header from a backend response when set.
func copyHeader(w http.ResponseWriter, resp *http.Response, name string) {
	if v := resp.Header.Get(name); v != "" {
		w.Header().Set(name, v)
	}
}

// fnPrefix shortens a function key for logs.
func fnPrefix(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func firstLine(data []byte) string {
	s := string(data)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
