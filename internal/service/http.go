package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
)

// maxBodyBytes bounds request payloads; PLA texts the engine can handle
// are far below this.
const maxBodyBytes = 1 << 20

// waitGrace is added to the handler's wait beyond the job deadline, so a
// budget-bounded synthesis gets to publish its incumbent before the
// waiter gives up and falls back to a poll response.
const waitGrace = 250 * time.Millisecond

// Handler returns the service's HTTP API:
//
//	POST /v1/synthesize         run (or join, or answer from cache) a synthesis
//	GET  /v1/jobs/{id}          poll a job (includes a live progress snapshot)
//	GET  /v1/jobs/{id}/events   stream progress events (SSE; ?wait= long-polls)
//	GET  /v1/jobs/{id}/trace    a finished job's span trace, as JSONL
//	GET  /v1/stats              queue health + SLO burn rates
//	GET  /healthz               queue health; 503 while draining
//	GET  /debug/flightrecorder  recent request summaries
//	GET  /metrics/prom          the metrics registry, Prometheus text format
//	/metrics, /debug/…          the obsv debug surface, for single-port setups
//
// Every response carries an X-Request-Id header (the inbound one when
// the client sent a plausible value, minted otherwise) and every handler
// emits one JSON access log line.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", s.instrument("synthesize", s.sloSynth, slog.LevelInfo,
		handleSynthesize(s, maxBodyBytes, parseRequest)))
	mux.HandleFunc("POST /v1/synthesize/batch", s.instrument("synthesize_batch", s.sloSynth, slog.LevelInfo,
		handleSynthesize(s, maxBatchBodyBytes, parseBatch)))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.sloJobs, slog.LevelInfo, s.handleJob))
	// Streaming holds the connection open for the job's lifetime; keeping
	// it out of the jobs SLO (and at debug log level) stops every watch
	// from reading as a latency violation.
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("events", nil, slog.LevelDebug, s.handleJobEvents))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.instrument("trace", nil, slog.LevelInfo, s.handleJobTrace))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", nil, slog.LevelDebug, s.handleStats))
	// Internal peer surface: a sharding front tier's reshard warm-up asks
	// the previous owner's cache here before the new owner re-solves.
	mux.HandleFunc("GET /v1/cache/{fnKey}", s.instrument("cache", nil, slog.LevelDebug, s.handleCacheLookup))
	// Health probes fire every few seconds; keep their access logs at
	// debug so the log stream stays about real work.
	mux.HandleFunc("GET /healthz", s.instrument("healthz", nil, slog.LevelDebug, s.handleHealthz))
	mux.HandleFunc("GET /debug/flightrecorder", s.instrument("flightrecorder", nil, slog.LevelDebug, s.handleFlightRecorder))
	mux.HandleFunc("GET /metrics/prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obsv.PromContentType)
		obsv.WritePrometheus(w, nil) //nolint:errcheck // client gone is not actionable
	})
	mux.Handle("/metrics", obsv.DebugHandler(nil))
	mux.Handle("/debug/", obsv.DebugHandler(nil))
	return mux
}

// statusWriter captures the status code for access logs and SLO counting.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(c int) {
	w.code = c
	w.ResponseWriter.WriteHeader(c)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flusher, which the SSE stream needs through the instrument wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the request-scoped plumbing: resolve
// the request id (honor a plausible inbound X-Request-Id, mint
// otherwise), echo it on the response, carry it in the request context,
// observe the endpoint SLO, and write one access log line.
func (s *Server) instrument(endpoint string, slo *obsv.SLO, lvl slog.Level, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := obsv.SanitizeRequestID(r.Header.Get("X-Request-Id"))
		if id == "" {
			id = s.newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		ctx := obsv.ContextWithRequestID(r.Context(), id)
		// Inbound trace context (a front hop forwarding its span id). The
		// header is untrusted; the parser applies the request-id policy and
		// malformed values simply mean "no remote parent".
		if tc, ok := obsv.ParseTraceContext(r.Header.Get(obsv.TraceHeader)); ok {
			ctx = obsv.ContextWithTraceContext(ctx, tc)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(ctx))
		d := time.Since(start)
		slo.Observe(d)
		s.log.Log(r.Context(), lvl, "http",
			"endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
			"status", sw.code, "request_id", id, "dur_ms", float64(d)/1e6)
	}
}

// handleSynthesize serves both synthesize routes: decode a T under the
// route's body limit, parse it once into work (the fn key and timeout
// are needed before dispatch, and parsing hashes every cover), and
// serve it.
func handleSynthesize[T any, W work](s *Server, limit int64, parse func(T) (W, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := obsv.RequestIDFromContext(r.Context())
		var req T
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), reqID)
			return
		}
		wk, err := parse(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), reqID)
			return
		}
		id := wk.id()
		w.Header().Set("X-Janus-Fn-Key", id.fnKey)
		// Bound the wait to the request budget (plus grace) so an abandoned
		// connection is the only way to give up earlier than the job does.
		ctx, cancel := context.WithTimeout(r.Context(),
			id.timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)+waitGrace)
		defer cancel()
		// A front tier that just resharded this key hints at the previous
		// owner; a function's cache probe consults that owner's cache
		// before synthesizing.
		ctx = ContextWithFillFrom(ctx, r.Header.Get("X-Janus-Fill-From"))
		ctx = ContextWithTenant(ctx, sanitizeTenant(r.Header.Get("X-Janus-Tenant")))
		resp, err := s.serve(ctx, wk)
		if err != nil {
			writeSynthesizeError(w, err, reqID)
			return
		}
		code := http.StatusOK
		if resp.Status == StatusQueued || resp.Status == StatusRunning {
			code = http.StatusAccepted // poll GET /v1/jobs/{id}
		}
		writeJSON(w, code, resp)
	}
}

// writeSynthesizeError maps admission errors onto status codes, shared
// by the single and batch routes. ErrTenantBusy wraps ErrBusy, so a
// per-tenant shed carries the same 429 + Retry-After contract as a
// global queue-full.
func writeSynthesizeError(w http.ResponseWriter, err error, reqID string) {
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error(), reqID)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error(), reqID)
	default:
		writeError(w, http.StatusBadRequest, err.Error(), reqID)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	reqID := obsv.RequestIDFromContext(r.Context())
	resp, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job", reqID)
		return
	}
	resp.RequestID = reqID
	if resp.FnKey != "" {
		w.Header().Set("X-Janus-Fn-Key", resp.FnKey)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCacheLookup is the peer cache-fill surface: resolve a function
// key against this daemon's caches under the asking budget (exact key,
// then the cross-budget rules) and return the answer with its budget
// identity, or 404. Misses are cheap — two map probes — so peers can
// ask freely.
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	reqID := obsv.RequestIDFromContext(r.Context())
	q := r.URL.Query()
	timeoutMS, err := parseInt64(q.Get("timeout_ms"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "timeout_ms: "+err.Error(), reqID)
		return
	}
	maxConflicts, err := parseInt64(q.Get("max_conflicts"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "max_conflicts: "+err.Error(), reqID)
		return
	}
	if timeoutMS < 0 || maxConflicts < 0 {
		writeError(w, http.StatusBadRequest, "negative budget", reqID)
		return
	}
	ent, ok := s.CacheLookup(r.PathValue("fnKey"), timeoutMS, maxConflicts)
	if !ok {
		writeError(w, http.StatusNotFound, "cache miss", reqID)
		return
	}
	writeJSON(w, http.StatusOK, ent)
}

// parseInt64 parses a decimal query value; absent reads 0 (the budget
// fields are optional), but garbage is an error the handler must 400.
// Budget values feed cache-compatibility decisions — a malformed
// timeout_ms silently read as 0 ("no budget") could hand a peer an
// answer its real budget is not entitled to.
func parseInt64(v string) (int64, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a decimal integer: %q", v)
	}
	return n, nil
}

// maxLongPoll caps a single ?wait= long-poll round.
const maxLongPoll = 60 * time.Second

// sseHeartbeat keeps idle SSE connections alive through proxies.
const sseHeartbeat = 15 * time.Second

// EventsPage is the ?wait= long-poll body: the events after the caller's
// cursor, the next cursor to pass back, and whether the stream is over.
type EventsPage struct {
	JobID    string              `json:"job_id"`
	Next     uint64              `json:"next"`
	Terminal bool                `json:"terminal"`
	Events   []ProgressEventJSON `json:"events"`
}

// handleJobEvents streams a job's progress. Default is SSE — one frame
// per event with the seq as the event id, so a dropped client resumes
// via the standard Last-Event-ID header; the stream ends after the
// terminal "done" event. With ?wait=<ms> it long-polls instead: block up
// to that long for events past ?after=<seq> and return them as one JSON
// page — the fallback for clients (curl in CI, janusload) that don't
// speak SSE.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	reqID := obsv.RequestIDFromContext(r.Context())
	id := r.PathValue("id")
	p, ok := s.JobEvents(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job", reqID)
		return
	}
	if p == nil {
		writeError(w, http.StatusNotFound, "batch jobs have no progress stream", reqID)
		return
	}
	if r.URL.Query().Has("wait") {
		s.longPollEvents(w, r, id, p)
		return
	}
	after := parseSeq(r.Header.Get("Last-Event-ID"))
	if v := r.URL.Query().Get("after"); v != "" {
		after = parseSeq(v)
	}
	// ResponseController sees through the instrument wrapper (and any
	// other Unwrap-ping middleware) to the connection's Flusher.
	fl := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if err := fl.Flush(); err != nil {
		// No streaming support at all (ErrNotSupported): the long-poll
		// fallback is the answer; nothing useful can follow on this one.
		return
	}
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		wake := p.waitCh() // grab before reading so no append is missed
		evs, terminal := p.eventsSince(after)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
			after = e.Seq
		}
		if len(evs) > 0 {
			fl.Flush() //nolint:errcheck // client gone surfaces via r.Context
		}
		if terminal {
			return
		}
		select {
		case <-wake:
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			fl.Flush() //nolint:errcheck // client gone surfaces via r.Context
		case <-r.Context().Done():
			return
		}
	}
}

// longPollEvents is the JSON fallback: one page per request.
func (s *Server) longPollEvents(w http.ResponseWriter, r *http.Request, id string, p *progressState) {
	after := parseSeq(r.URL.Query().Get("after"))
	wait := time.Duration(parseSeq(r.URL.Query().Get("wait"))) * time.Millisecond
	if wait > maxLongPoll {
		wait = maxLongPoll
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		wake := p.waitCh()
		evs, terminal := p.eventsSince(after)
		if len(evs) > 0 || terminal || wait <= 0 {
			next := after
			if n := len(evs); n > 0 {
				next = evs[n-1].Seq
			}
			writeJSON(w, http.StatusOK, EventsPage{
				JobID: id, Next: next, Terminal: terminal, Events: evs,
			})
			return
		}
		select {
		case <-wake:
		case <-deadline.C:
			writeJSON(w, http.StatusOK, EventsPage{JobID: id, Next: after})
			return
		case <-r.Context().Done():
			return
		}
	}
}

// parseSeq parses a non-negative decimal cursor; garbage reads as 0.
func parseSeq(v string) uint64 {
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	reqID := obsv.RequestIDFromContext(r.Context())
	data, err := s.JobTrace(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob), errors.Is(err, ErrNoTrace):
		writeError(w, http.StatusNotFound, err.Error(), reqID)
	case errors.Is(err, ErrNotFinished):
		writeError(w, http.StatusConflict, err.Error(), reqID)
	default:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(data) //nolint:errcheck // client gone is not actionable
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleFlightRecorder(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Flight())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	code := http.StatusOK
	if st.Draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is not actionable
}

func writeError(w http.ResponseWriter, code int, msg, reqID string) {
	writeJSON(w, code, Response{Status: StatusError, Error: msg, RequestID: reqID})
}
