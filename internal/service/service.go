// Package service implements janusd's synthesis service: a bounded job
// queue in front of core.Synthesize with request coalescing and a
// two-tier result cache.
//
// Synthesis calls are seconds-to-hours long, so the service treats them
// like batch jobs rather than RPCs: requests are canonicalized (the same
// function asked two ways is the same job), identical in-flight requests
// coalesce onto one synthesis, accepted jobs run on a fixed worker pool
// with per-request deadlines threaded into the SAT solver's interrupt
// channel, and a full queue pushes back with 429 instead of buffering
// unboundedly. Finished answers land in an in-memory LRU and, when a
// cache directory is configured, in an on-disk store that survives
// restarts — along with a snapshot of the process-wide path-enumeration
// memo, so a warm daemon skips both the search and the path enumeration
// it would need to redo.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/obsv"
)

// Config sizes the service. The zero value is usable: two workers, a
// 64-deep queue, 256 cached results in memory, no disk tier.
type Config struct {
	// Workers is the number of concurrent syntheses (default 2).
	Workers int
	// QueueDepth bounds the accepted-but-not-running backlog; a full
	// queue rejects with 429 (default 64).
	QueueDepth int
	// MemEntries bounds the in-memory result LRU (default 256).
	MemEntries int
	// CacheDir, when set, roots the persistent tier: results/ holds one
	// JSON file per canonical request, paths.json the memo snapshot.
	CacheDir string
	// DiskEntries / DiskBytes bound the results/ store (defaults 4096
	// entries, 64 MiB).
	DiskEntries int
	DiskBytes   int64
	// DefaultTimeout applies to requests without timeout_ms (default 5m);
	// MaxTimeout caps every request (default 1h).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// Tenants configures named tenants' scheduling shares; tenants not
	// listed here get TenantDefaults on first sight. See TenantConfig.
	Tenants map[string]TenantConfig
	// TenantDefaults applies to tenants without an explicit entry
	// (zero fields resolve to: weight 1, queue share = QueueDepth,
	// in-flight unlimited).
	TenantDefaults TenantConfig
	// Peers allowlists the daemon base URLs this server may fill its
	// cache from. The X-Janus-Fill-From hint is untrusted client input —
	// honoring an arbitrary URL would let any client make the daemon
	// fetch attacker-controlled cache entries (SSRF plus persistent
	// cache poisoning) — so a hint naming a URL outside this list is
	// ignored. Empty disables peer fill entirely.
	Peers []string
	// Logger receives JSON access and job lifecycle logs; nil discards.
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.MemEntries < 1 {
		c.MemEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = time.Hour
	}
	if c.Logger == nil {
		c.Logger = obsv.NopLogger()
	}
}

// retainJobs bounds how many finished jobs stay pollable by id.
const retainJobs = 1024

// traceJobs bounds the window of finished jobs whose span traces
// GET /v1/jobs/{id}/trace serves; beyond it only pinned traces remain
// (shouldPin).
const traceJobs = 64

// The latency objectives behind the burn-rate gauges: POST
// /v1/synthesize, GET /v1/jobs/{id}, and the anytime objective, enqueue
// to the first verified mapping (jobs that finish without a mapping
// count against it). Each tenant gets the synthesize and first-mapping
// objectives too, measured on its jobs' queue wait plus solve rather
// than on HTTP handler latency, so a tenant queued behind a noisy
// neighbor burns budget even when each solve is fast. sloTarget is the
// good fraction every objective must meet.
const (
	synthSLO        = 30 * time.Second
	jobsSLO         = 100 * time.Millisecond
	firstMappingSLO = 10 * time.Second
	sloTarget       = 0.99
)

// Server is the synthesis service. Create with NewServer, serve its
// Handler, stop with Shutdown.
type Server struct {
	cfg      Config
	mem      *memCache
	disk     *diskCache // nil without CacheDir
	memoPath string     // "" without CacheDir

	// baseCtx parents every job context; baseCancel is the hard-stop
	// lever Shutdown pulls when its own context expires.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// traces is the window of the last traceJobs finished jobs' traces;
	// the flight recorder pins the ones worth a post-mortem beyond it.
	// sloSynth/sloJobs are observed from the HTTP layer.
	traces      *obsv.TraceStore
	flight      *flightRecorder
	sloSynth    *obsv.SLO
	sloJobs     *obsv.SLO
	sloFirstMap *obsv.SLO
	log         *slog.Logger
	reqSeq      atomic.Uint64

	mu       sync.Mutex
	draining bool
	// sched replaces the old single job channel: per-tenant FIFOs behind
	// a weighted deficit-round-robin dispatcher (tenant.go). cond wakes
	// workers on enqueue, job completion (in-flight caps may have
	// unblocked a tenant), and drain.
	sched     *scheduler
	cond      *sync.Cond
	inflight  map[string]*job // queued or running, by canonical key
	jobs      map[string]*job // by id, finished jobs retained
	doneOrder []string        // finished ids, oldest first
	seq       uint64
	nonce     string

	// budgets indexes finished answers by budget-free function key, so a
	// request whose exact (function, budget) key misses can still be
	// served by an answer computed under a compatible budget (see
	// probe). Guarded by budMu, not mu: lookups happen on the request
	// path before admission.
	budMu   sync.Mutex
	budgets map[string][]budgetEntry

	// peers is the normalized Config.Peers allowlist; only these URLs
	// may be consulted for peer cache fill. Guarded by peersMu so tests
	// and future dynamic-membership config can swap it.
	peersMu sync.RWMutex
	peers   map[string]bool

	wg sync.WaitGroup

	// synth runs one synthesis; tests replace it to count and stall.
	// synthMulti is the batch equivalent (core.SynthesizeMulti).
	synth      func(f cube.Cover, opt core.Options) (core.Result, error)
	synthMulti func(fns []cube.Cover, opt core.Options, reduce bool) (*core.MultiResult, error)
}

// work is what one job synthesizes: a *parsedRequest (one function,
// JANUS) or a *parsedBatch (several functions packed onto one lattice,
// JANUS-MF). Both kinds take the same path through admission, the
// queue, the worker and the flight recorder; only the cache probe and
// the solve differ.
type work interface {
	id() *ident
	// lookup probes the caches for a finished answer before admission,
	// and says which tier answered.
	lookup(ctx context.Context, s *Server) (out *outcome, where string, ok bool)
	// solve runs the synthesis of job j under ctx (its core call goes
	// through s.call), applies the kind's outcome rules and cache writes,
	// and returns the outcome and the grids the search probed.
	solve(ctx context.Context, s *Server, j *job) (out *outcome, probed []string)
}

// ident is what both kinds of work share: the keys, the budget and the
// async flag. fnKey identifies the budget-free question, the identity a
// sharding front routes on; key adds the budget fields and is the exact
// coalescing and cache identity.
type ident struct {
	fnKey        string
	key          string
	maxConflicts int64
	timeoutMS    int64
	async        bool
}

// identOf derives the identity of a request for the question fnKey.
func identOf(fnKey string, req Request) ident {
	return ident{
		fnKey: fnKey, key: canonicalKey(fnKey, req),
		maxConflicts: req.MaxConflicts, timeoutMS: req.TimeoutMS, async: req.Async,
	}
}

func (id *ident) id() *ident { return id }

// timeout resolves the effective deadline budget against the server's
// default and cap.
func (id *ident) timeout(def, max time.Duration) time.Duration {
	d := time.Duration(id.timeoutMS) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// job is one synthesis admitted to the queue. Mutable fields (status,
// out, waiters, async) are guarded by the server mutex; done closes when
// the job reaches a terminal status.
type job struct {
	id        string
	requestID string // the admitting request's id, stamped on the trace
	// traceCtx is the admitting request's inbound trace context (zero
	// when none): the job's span tree roots under this remote parent so
	// the front tier can stitch its spans and ours into one trace.
	traceCtx  obsv.TraceContext
	work      work
	tenant    string // the tenant queue this job is accounted to
	enqueued  time.Time
	deadline  time.Time
	ctx       context.Context
	cancel    context.CancelFunc
	waiters   int
	async     bool
	status    string
	queueWait time.Duration
	solveTime time.Duration  // the core call alone; set by Server.call
	progress  *progressState // nil for batch jobs
	span      *obsv.Span     // the job's root span (Job) while it runs
	out       *outcome
	done      chan struct{}
}

// endpoint is the route that submits the job's kind, the label of its
// tenant histograms.
func (j *job) endpoint() string {
	if _, batch := j.work.(*parsedBatch); batch {
		return "synthesize_batch"
	}
	return "synthesize"
}

// NewServer builds the service, loads the persistent tier (results and
// the memo path snapshot), and starts the worker pool.
func NewServer(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:        cfg,
		mem:        newMemCache(cfg.MemEntries),
		sched:      newScheduler(cfg.QueueDepth, cfg.TenantDefaults, cfg.Tenants),
		traces:     obsv.NewTraceStore(traceJobs),
		flight:     newFlightRecorder(),
		inflight:   make(map[string]*job),
		jobs:       make(map[string]*job),
		budgets:    make(map[string][]budgetEntry),
		synth:      core.Synthesize,
		synthMulti: core.SynthesizeMulti,
	}
	s.cond = sync.NewCond(&s.mu)
	s.SetPeers(cfg.Peers...)
	var nonce [4]byte
	rand.Read(nonce[:]) //nolint:errcheck // crypto/rand never fails on supported platforms
	s.nonce = hex.EncodeToString(nonce[:])
	s.log = cfg.Logger
	s.sloSynth = obsv.NewSLO("synthesize", synthSLO, sloTarget)
	s.sloJobs = obsv.NewSLO("jobs", jobsSLO, sloTarget)
	s.sloFirstMap = obsv.NewSLO("first_mapping", firstMappingSLO, sloTarget)
	s.sloSynth.Register(obsv.Default, "janus_service_slo_synthesize")
	s.sloJobs.Register(obsv.Default, "janus_service_slo_jobs")
	s.sloFirstMap.Register(obsv.Default, "janus_service_slo_first_mapping")
	if cfg.CacheDir != "" {
		disk, err := openDiskCache(filepath.Join(cfg.CacheDir, "results"),
			cfg.DiskEntries, cfg.DiskBytes)
		if err != nil {
			return nil, fmt.Errorf("service: opening result cache: %w", err)
		}
		s.disk = disk
		s.memoPath = filepath.Join(cfg.CacheDir, "paths.json")
		n, err := memo.LoadPathsFile(s.memoPath)
		if err != nil {
			// A bad snapshot only costs re-enumeration; never fail startup
			// over it. The atomic writer makes this path unlikely.
			n = 0
		}
		gMemoLoaded.Set(int64(n))
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Errors the HTTP layer maps to status codes.
var (
	// ErrBusy: the queue is full; retry later (429).
	ErrBusy = fmt.Errorf("service: queue full")
	// ErrDraining: the server is shutting down (503).
	ErrDraining = fmt.Errorf("service: draining")
)

// Synthesize is the embedded-use entry point for one function (the
// HTTP handler and the Client both end up in serve): it resolves the
// request against the caches, coalesces with an identical in-flight job
// or enqueues a new one, and waits for the outcome or ctx. A ctx that
// ends first abandons the job (which is cancelled once no waiter
// remains, unless async) and returns the job's current state so the
// caller can poll later.
func (s *Server) Synthesize(ctx context.Context, req Request) (*Response, error) {
	p, err := parseRequest(req)
	if err != nil {
		return nil, err
	}
	return s.serve(ctx, p)
}

// SynthesizeBatch is the batch entry point (POST /v1/synthesize/batch):
// one job runs core.SynthesizeMulti over every function, on the same
// serve path as Synthesize.
func (s *Server) SynthesizeBatch(ctx context.Context, req BatchRequest) (*Response, error) {
	pb, err := parseBatch(req)
	if err != nil {
		return nil, err
	}
	return s.serve(ctx, pb)
}

// serve is the one serve path, past validation. The HTTP handler calls
// it directly with the work it already parsed (it needed the fn key and
// timeout before dispatch), so a request is parsed — covers hashed, PLA
// walked — exactly once.
func (s *Server) serve(ctx context.Context, w work) (*Response, error) {
	start := time.Now()
	mRequests.Inc()
	id := w.id()
	reqID := obsv.RequestIDFromContext(ctx)
	if reqID == "" {
		reqID = s.newRequestID()
		ctx = obsv.ContextWithRequestID(ctx, reqID)
	}
	if out, where, ok := w.lookup(ctx, s); ok {
		hRequestNS.Observe(int64(time.Since(start)))
		s.flight.record(FlightEntry{
			Time: start, RequestID: reqID, FnKey: fnPrefix(id.fnKey),
			Outcome: out.Status, Cached: where, Grid: outcomeGrid(out),
			TotalNS: int64(time.Since(start)),
		})
		return withMeta(respond(out, "", where), reqID, id.fnKey), nil
	}
	tc, _ := obsv.TraceContextFromContext(ctx)
	j, coalesced, err := s.admit(w, reqID, tenantFromContext(ctx), tc)
	if err != nil {
		// Shed and drain refusals go in the flight recorder too: a burst
		// of 429s is exactly the kind of incident it exists to replay.
		oc := outcomeShed
		if err == ErrDraining {
			oc = outcomeDraining
		}
		s.flight.record(FlightEntry{
			Time: start, RequestID: reqID, FnKey: fnPrefix(id.fnKey),
			Outcome: oc, Error: err.Error(), TotalNS: int64(time.Since(start)),
		})
		return nil, err
	}
	if id.async {
		s.mu.Lock()
		resp := &Response{JobID: j.id, Status: j.status, RequestID: reqID, FnKey: id.fnKey}
		s.mu.Unlock()
		return resp, nil
	}
	defer func() { hRequestNS.Observe(int64(time.Since(start))) }()
	cached := ""
	if coalesced {
		cached = "coalesced"
	}
	select {
	case <-j.done:
		if coalesced {
			// The leader's job entry is recorded by run(); followers get
			// their own entry pointing at the job that answered them.
			s.flight.record(FlightEntry{
				Time: start, RequestID: reqID, JobID: j.id, CoalescedInto: j.id,
				FnKey: fnPrefix(id.fnKey), Outcome: j.out.Status, Cached: cached,
				Grid: outcomeGrid(j.out), TotalNS: int64(time.Since(start)),
			})
		}
		return withMeta(respond(j.out, j.id, cached), reqID, id.fnKey), nil
	case <-ctx.Done():
		s.abandon(j)
		s.mu.Lock()
		resp := &Response{JobID: j.id, Status: j.status, RequestID: reqID, FnKey: id.fnKey}
		s.mu.Unlock()
		return resp, nil
	}
}

// newRequestID mints a process-unique request id.
func (s *Server) newRequestID() string {
	return fmt.Sprintf("r%s-%d", s.nonce, s.reqSeq.Add(1))
}

// withMeta stamps the request id and function key on a response.
func withMeta(r *Response, id, fnKey string) *Response {
	r.RequestID = id
	r.FnKey = fnKey
	return r
}

// fnPrefix shortens a function key for logs and flight entries.
func fnPrefix(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

// outcomeGrid formats a done outcome's lattice shape ("3x4"); a
// batch's is its packed lattice's.
func outcomeGrid(out *outcome) string {
	switch {
	case out == nil:
		return ""
	case out.Batch != nil:
		return out.Batch.Sol
	case out.Result != nil:
		return fmt.Sprintf("%dx%d", out.Result.M, out.Result.N)
	}
	return ""
}

// cached resolves a key against the memory tier and then the disk tier.
// Only checked answers enter memory, so a memory hit is served as it is.
// A disk hit is promoted into memory and served when check accepts it;
// one it refuses is deleted, counted and logged, and the lookup misses.
// With check nil the disk hit is served but stays out of memory: that is
// a peer's lookup, which knows only the function key, and the asking
// daemon checks the answer before adopting it (peerFill).
func (s *Server) cached(key string, check func(*outcome) bool) (*outcome, string, bool) {
	if out, ok := s.mem.get(key); ok {
		mMemHits.Inc()
		return out, "mem", true
	}
	if out, ok := s.disk.get(key); ok {
		switch {
		case check == nil:
			mDiskHits.Inc()
			return out, "disk", true
		case check(out):
			mDiskHits.Inc()
			s.mem.put(key, out)
			return out, "disk", true
		}
		s.disk.drop(key)
		mVerifyFailures.Inc()
		s.log.Warn("disk cache entry does not answer its request; dropped", "key", key)
	}
	mCacheMiss.Inc()
	return nil, "", false
}

// admit coalesces the request onto an identical in-flight job or
// enqueues a new one under the tenant's fairness rules, all under the
// mutex so admission cannot race drain.
func (s *Server) admit(w work, reqID, tenant string, tc obsv.TraceContext) (*job, bool, error) {
	id := w.id()
	timeout := id.timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	if j, ok := s.inflight[id.key]; ok {
		// Coalescing is keyed by the canonical request, not the tenant:
		// two tenants asking the same question share one synthesis (the
		// answer is identical), accounted to whichever tenant asked first.
		j.waiters++
		if id.async {
			j.async = true
		}
		mCoalesced.Inc()
		return j, true, nil
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j%s-%d", s.nonce, s.seq),
		requestID: reqID,
		traceCtx:  tc,
		work:      w,
		tenant:    tenant,
		enqueued:  time.Now(),
		deadline:  time.Now().Add(timeout),
		waiters:   1,
		async:     id.async,
		status:    StatusQueued,
		done:      make(chan struct{}),
	}
	if _, single := w.(*parsedRequest); single {
		// Created at admission so the events stream exists (and buffers)
		// from the first queued moment, not only once a worker picks the
		// job up. Batch jobs carry no progress stream: the per-output
		// searches would interleave into one incoherent event sequence.
		j.progress = newProgressState(progressEvents, j.enqueued)
	}
	// The job deadline covers queue wait plus synthesis and holds even
	// after every waiter is gone, so async jobs cannot run forever.
	j.ctx, j.cancel = context.WithDeadline(s.baseCtx, j.deadline)
	if err := s.sched.enqueue(j); err != nil {
		j.cancel()
		if !errors.Is(err, ErrTenantBusy) {
			mQueueFull.Inc()
		}
		return nil, false, err
	}
	gQueueDepth.Set(int64(s.sched.total))
	s.inflight[id.key] = j
	s.jobs[j.id] = j
	s.cond.Signal()
	s.log.Info("job queued", "job_id", j.id, "request_id", reqID,
		"fn_key", fnPrefix(id.fnKey), "tenant", j.tenant, "endpoint", j.endpoint(),
		"async", j.async, "timeout_ms", timeout.Milliseconds(),
		"queue_depth", s.sched.total)
	return j, false, nil
}

// abandon drops one waiter; when the last synchronous waiter leaves a
// still-unfinished, non-async job, its context is cancelled so the
// worker slot (or queue slot) frees promptly instead of burning the full
// deadline on an answer nobody is waiting for.
func (s *Server) abandon(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.waiters > 0 {
		j.waiters--
	}
	if j.waiters == 0 && !j.async && j.out == nil {
		j.cancel()
	}
}

// Job returns the state of a job by id (GET /v1/jobs/{id}).
func (s *Server) Job(id string) (*Response, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	var resp *Response
	if j.out != nil {
		resp = respond(j.out, j.id, "")
	} else {
		resp = &Response{JobID: j.id, Status: j.status}
	}
	resp.FnKey = j.work.id().fnKey
	// The inline snapshot is what makes a plain poll "anytime": a caller
	// that never opens the events stream still sees the bounds close in.
	resp.Progress = j.progress.snapshot()
	return resp, true
}

// JobEvents returns a job's progress stream handle for the events
// endpoint: the state (nil for a batch job) plus whether the job exists
// at all.
func (s *Server) JobEvents(id string) (*progressState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.progress, true
}

// respond wraps an immutable outcome in a per-request Response.
func respond(out *outcome, id, cached string) *Response {
	return &Response{
		JobID: id, Status: out.Status, Cached: cached,
		Error: out.Error, Result: out.Result, Batch: out.Batch,
	}
}

// worker pulls dispatches from the scheduler until the drain completes:
// it exits only once draining is set AND every queued job has been
// picked (and short-circuited as canceled, if the hard stop fired), so
// accepted jobs always reach a terminal state.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *job
		for {
			j = s.sched.pick()
			if j != nil {
				break
			}
			if s.draining && s.sched.total == 0 {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		gQueueDepth.Set(int64(s.sched.total))
		s.mu.Unlock()
		s.run(j)
	}
}

// run executes one job: skip it when already cancelled in the queue,
// otherwise open its Job span and solve it under the job context, which
// carries the request id, and publish the outcome, one flight entry per
// job.
func (s *Server) run(j *job) {
	fnKey := fnPrefix(j.work.id().fnKey)
	s.mu.Lock()
	if j.ctx.Err() == context.Canceled {
		j.progress.finish(StatusCanceled, 0, 0, false)
		s.finishLocked(j, &outcome{Status: StatusCanceled, Error: "canceled while queued"})
		s.mu.Unlock()
		s.flight.record(FlightEntry{
			Time: j.enqueued, RequestID: j.requestID, JobID: j.id,
			FnKey: fnKey, Outcome: StatusCanceled,
			Error: "canceled while queued", TotalNS: int64(time.Since(j.enqueued)),
		})
		s.log.Info("job canceled while queued", "job_id", j.id, "request_id", j.requestID)
		return
	}
	j.status = StatusRunning
	j.queueWait = time.Since(j.enqueued)
	tq := s.sched.tenant(j.tenant)
	s.mu.Unlock()
	endpoint := j.endpoint()
	hQueueWaitNS.Observe(int64(j.queueWait))
	tq.observeQueueWait(endpoint, j.queueWait)

	trace := obsv.NewTraceBuffer(obsv.DefaultTraceSpans, obsv.DefaultTraceBytes)
	tracer := obsv.NewTracer(trace)
	if j.traceCtx.Valid() {
		// An inbound X-Janus-Trace header roots this job under the remote
		// caller's span: the tracer stamps the fleet trace id and process
		// tag on every span, and Job carries the advisory remote parent the
		// front resolves when stitching.
		tracer.SetTrace(j.traceCtx.TraceID, "janusd")
	}
	jobSpan := obsv.StartRemote(tracer, j.traceCtx.Parent, "Job")
	jobSpan.SetStr("job_id", j.id)
	jobSpan.SetStr("request_id", j.requestID)
	jobSpan.SetStr("fn_key", fnKey)
	jobSpan.SetInt("queue_wait_ns", int64(j.queueWait))
	j.span = jobSpan

	out, probed := j.work.solve(obsv.ContextWithRequestID(j.ctx, j.requestID), s, j)
	total := j.queueWait + j.solveTime
	entry := FlightEntry{
		Time: j.enqueued, RequestID: j.requestID, JobID: j.id,
		FnKey: fnKey, Outcome: out.Status, Error: out.Error,
		Grid: outcomeGrid(out), GridsProbed: probed,
		QueueWaitNS: int64(j.queueWait), SolveNS: int64(j.solveTime), TotalNS: int64(total),
	}
	switch {
	case out.Result != nil:
		entry.FinalLB, entry.FinalUB = out.Result.FinalLB, out.Result.Size
		entry.Partial = out.Result.Partial
	case out.Batch != nil:
		entry.FinalUB = out.Batch.Size
	}
	if j.progress != nil {
		// Anytime SLO: enqueue to first verified mapping. Jobs that never
		// held one count as misses at their total latency or just past
		// the objective, whichever is worse.
		fm := j.progress.firstMappingAt()
		if fm == 0 {
			fm = total
			if fm <= firstMappingSLO {
				fm = firstMappingSLO + 1
			}
		} else {
			hFirstMappingNS.Observe(int64(fm))
		}
		s.sloFirstMap.Observe(fm)
		tq.observeFirstMapping(fm)
		j.progress.finish(out.Status, entry.FinalLB, entry.FinalUB, entry.Partial)
	}
	jobSpan.SetStr("outcome", out.Status)
	if out.Result != nil || out.Batch != nil {
		jobSpan.SetInt("size", int64(entry.FinalUB))
	}
	jobSpan.End() // last span to end: survives any buffer eviction
	// A finished job stays retained; its span would keep the whole trace
	// buffer alive through the tracer. The trace stores hold the kept ones.
	j.span = nil
	// The trace is final now, and stored before the job reads as finished.
	s.traces.Put(j.id, trace)

	tq.observeE2E(endpoint, total)
	if shouldPin(out.Status, entry.Partial, total) {
		mTracesPinned.Inc()
		s.flight.pins.Put(j.id, trace)
		entry.TracePinned = true
	}
	s.flight.record(entry)
	s.log.Info("job finished", "job_id", j.id, "request_id", j.requestID,
		"tenant", j.tenant, "outcome", out.Status, "grid", entry.Grid,
		"partial", entry.Partial, "final_lb", entry.FinalLB,
		"queue_wait_ms", j.queueWait.Milliseconds(), "solve_ms", j.solveTime.Milliseconds(),
		"trace_pinned", entry.TracePinned)

	s.mu.Lock()
	s.finishLocked(j, out)
	s.mu.Unlock()
}

// call runs the core call of j's solve. It counts the job as running
// and times the call alone, not the outcome rules and cache writes that
// follow. Then it reads whether the job was cancelled and releases the
// deadline timer; the read comes first because the release cancels the
// context.
func (s *Server) call(j *job, synthesize func()) (canceled bool) {
	gRunning.Add(1)
	started := time.Now()
	synthesize()
	j.solveTime = time.Since(started)
	gRunning.Add(-1)
	hSolveNS.Observe(int64(j.solveTime))
	canceled = j.ctx.Err() == context.Canceled
	j.cancel()
	return canceled
}

// lookup probes the caches for one function: the exact key, then the
// budget index, then the previous owner's cache when a front tier hints
// at one.
func (p *parsedRequest) lookup(ctx context.Context, s *Server) (*outcome, string, bool) {
	if out, where, _, ok := s.probe(p, p.realizes); ok {
		return out, where, true
	}
	// Reshard warm-up: a front tier that just moved this key here hints
	// at the previous owner; adopting its cached answer (when budget-
	// compatible) turns what would be a re-solve stampede into one HTTP
	// round trip. Any failure falls through to a normal synthesis.
	if peer := fillFrom(ctx); peer != "" {
		if out, ok := s.peerFill(ctx, peer, p); ok {
			return out, "peer", true
		}
	}
	return nil, "", false
}

// solve runs JANUS on the function, traced under the job's span and
// reporting to its progress state.
func (p *parsedRequest) solve(ctx context.Context, s *Server, j *job) (*outcome, []string) {
	opt := p.coreOptions()
	opt.Ctx = ctx
	opt.Deadline = j.deadline
	opt.TraceParent = j.span
	opt.Progress = j.progress
	var res core.Result
	var err error
	canceled := s.call(j, func() { res, err = s.synth(p.cover, opt) })
	switch {
	case err != nil:
		mJobErrors.Inc()
		return &outcome{Status: StatusError, Error: err.Error()}, res.GridsProbed
	case canceled && res.Assignment == nil:
		// Abandoned before the bounds phase produced anything: there is
		// no answer to degrade to.
		mCanceled.Inc()
		return &outcome{Status: StatusCanceled, Error: "canceled"}, res.GridsProbed
	}
	// Deadline expiry is not an error: the search returns its best
	// verified incumbent, which is the agreed answer for this budget
	// (timeout_ms is part of the cache key, and the budget index only
	// ever serves a non-MatchedLB answer to same-or-smaller budgets).
	// Cancelled mid-run with a verified incumbent in hand is an answer
	// too: it is published as done (partial when the bounds had not met)
	// so pollers and coalesced followers get the mapping instead of a
	// bare "canceled". But a cancelled run used less than its nominal
	// budget, so a partial answer from it must never enter the caches:
	// under the exact (function, budget) key it would claim "this is what
	// that budget buys", which a fuller run could beat. A converged
	// answer (bounds met) is exact for any budget and caches normally.
	mJobsDone.Inc()
	if res.Partial {
		mPartial.Inc()
	}
	out := &outcome{Status: StatusDone, Result: renderResult(res, p.names)}
	if !canceled || !res.Partial {
		s.mem.put(p.key, out)
		s.disk.put(p.key, out)
		s.recordBudget(p, res.MatchedLB)
	}
	return out, res.GridsProbed
}

// finishLocked publishes a dispatched job's terminal outcome: its
// tenant's in-flight slot returns, the key frees for new submissions,
// waiters wake, and the job stays pollable within the retention window.
func (s *Server) finishLocked(j *job, out *outcome) {
	j.out = out
	j.status = out.Status
	// The slot returns before close(j.done) wakes the job's waiters, so a
	// caller that reads /v1/stats after its response never sees its own
	// job still in flight. Completion may also unblock an in-flight-capped
	// tenant, another waiting worker, or the drain loop.
	s.sched.complete(j.tenant)
	s.cond.Broadcast()
	delete(s.inflight, j.work.id().key)
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > retainJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
	close(j.done)
}

// Errors JobTrace distinguishes for the HTTP layer.
var (
	// ErrUnknownJob: no job with that id (never existed or retention
	// evicted it).
	ErrUnknownJob = fmt.Errorf("service: unknown job")
	// ErrNotFinished: the job exists but has not reached a terminal
	// status; its trace is still being written.
	ErrNotFinished = fmt.Errorf("service: job not finished")
	// ErrNoTrace: the job finished but no trace is retained (it left the
	// traceJobs window without a pin, or was canceled while queued).
	ErrNoTrace = fmt.Errorf("service: no trace retained")
)

// JobTrace returns a finished job's span trace as JSONL (the schema
// obsv.ValidateTrace checks). It reads the window of the last traceJobs
// finished jobs, then the flight recorder's pins, so slow or failed jobs
// stay inspectable after the window and the job retention move past
// them. The job's state is read first: a trace is stored before its job
// reads as finished, so a finished job's trace is found unless evicted.
func (s *Server) JobTrace(id string) ([]byte, error) {
	s.mu.Lock()
	j, known := s.jobs[id]
	finished := known && j.out != nil
	s.mu.Unlock()
	if b, ok := s.traces.Get(id); ok {
		return b.Bytes(), nil
	}
	if b, ok := s.flight.pins.Get(id); ok {
		return b.Bytes(), nil
	}
	switch {
	case !known:
		return nil, ErrUnknownJob
	case !finished:
		return nil, ErrNotFinished
	}
	return nil, ErrNoTrace
}

// Flight returns the flight recorder's current contents.
func (s *Server) Flight() FlightDump {
	return s.flight.dump()
}

// Stats is the /healthz and /v1/stats body.
type Stats struct {
	Draining      bool  `json:"draining"`
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	Running       int64 `json:"running_jobs"`
	Workers       int   `json:"workers"`
	DiskEntries   int   `json:"disk_entries"`
	MemoLoaded    int64 `json:"memo_paths_loaded"`
	TracedJobs    int   `json:"traced_jobs"`
	// Scheduler is the fairness counter block: per-tenant queue depths,
	// shares, and admit/shed/complete counters, plus the DRR round and
	// dispatch totals. Optional on the wire (older daemons omit it).
	Scheduler *SchedulerStats `json:"scheduler,omitempty"`
	// SLOs carries the per-endpoint burn-rate snapshots (omitted on
	// /healthz responses from older daemons; clients must treat it as
	// optional).
	SLOs []obsv.SLOSnapshot `json:"slos,omitempty"`
}

// Stats reports queue health and the endpoint SLO burn rates.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	depth := s.sched.total
	sched := s.sched.stats()
	s.mu.Unlock()
	return Stats{
		Draining: draining, QueueDepth: depth, QueueCapacity: s.cfg.QueueDepth,
		Running: gRunning.Value(), Workers: s.cfg.Workers,
		DiskEntries: s.disk.len(), MemoLoaded: gMemoLoaded.Value(),
		TracedJobs: len(s.traces.IDs()), Scheduler: &sched,
		SLOs: []obsv.SLOSnapshot{s.sloSynth.Snapshot(), s.sloJobs.Snapshot(),
			s.sloFirstMap.Snapshot()},
	}
}

// Shutdown stops admission, drains the queue (accepted jobs finish), and
// persists the memo path snapshot. If ctx ends first, in-flight
// syntheses are cancelled cooperatively and Shutdown returns once they
// unwind. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	depth := s.sched.total
	// Wake every waiting worker: each drains remaining queued jobs and
	// exits once the scheduler is empty.
	s.cond.Broadcast()
	s.mu.Unlock()
	s.log.Info("draining", "queue_depth", depth)

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // hard stop: interrupt running solvers
		<-drained
	}
	s.baseCancel()
	if s.memoPath != "" {
		if serr := memo.SavePathsFile(s.memoPath); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
