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
	// SynthWorkers is core.Options.Workers for each job: intra-synthesis
	// candidate parallelism, on top of the job-level pool (default 1).
	SynthWorkers int

	// TraceJobs bounds how many finished jobs keep their full span trace
	// retrievable via GET /v1/jobs/{id}/trace (default 64; negative
	// disables per-job tracing, leaving only the flight recorder).
	TraceJobs int
	// TraceSpans / TraceBytes bound each job's trace buffer (defaults
	// obsv.DefaultTraceSpans / obsv.DefaultTraceBytes).
	TraceSpans int
	TraceBytes int64
	// FlightEntries sizes the flight recorder's request-summary ring
	// (default 256; negative disables the recorder).
	FlightEntries int
	// SlowTrace pins the full trace of any job at least this slow
	// (queue wait + solve) in the flight recorder, alongside errored and
	// canceled jobs (default 2s; negative disables the slow rule).
	SlowTrace time.Duration
	// SynthSLO / JobsSLO are the per-endpoint latency objectives behind
	// the burn-rate gauges (defaults 30s and 100ms); SLOTarget is the
	// good fraction both must meet (default 0.99).
	SynthSLO  time.Duration
	JobsSLO   time.Duration
	SLOTarget float64
	// ProgressEvents bounds each job's progress-event ring, the window
	// GET /v1/jobs/{id}/events can resume over (default 512; negative
	// disables per-job progress entirely, including the snapshot in job
	// polls and the anytime SLO).
	ProgressEvents int
	// FirstMappingSLO is the anytime objective: how quickly a job should
	// hold its first verified mapping, enqueue to incumbent (default
	// 10s). Jobs that finish without any mapping count against it.
	FirstMappingSLO time.Duration
	// TenantSynthSLO / TenantFirstMappingSLO are the per-tenant latency
	// objectives behind the tenant-labeled burn gauges and the SLO rows in
	// the /v1/stats scheduler block. Zero inherits SynthSLO /
	// FirstMappingSLO; negative disables per-tenant SLO tracking. The
	// tenant SLO measures job end-to-end time (queue wait + solve), not
	// HTTP handler latency, so a tenant queued behind a noisy neighbor
	// burns budget even when each individual solve is fast.
	TenantSynthSLO        time.Duration
	TenantFirstMappingSLO time.Duration
	// DisableTracePropagation, when set, makes the daemon ignore inbound
	// X-Janus-Trace headers: every job trace roots locally instead of
	// under the remote caller's span. Propagation is on by default — the
	// header is parsed under the same strict policy as request ids, so an
	// unparseable or hostile value degrades to a local root, never an
	// error.
	DisableTracePropagation bool
	// Tenants configures named tenants' scheduling shares; tenants not
	// listed here get TenantDefaults on first sight. See TenantConfig.
	Tenants map[string]TenantConfig
	// TenantDefaults applies to tenants without an explicit entry
	// (zero fields resolve to: weight 1, queue share = QueueDepth,
	// in-flight unlimited).
	TenantDefaults TenantConfig
	// BatchReduceBudget caps the LM solves one batch may spend in the
	// shared row-reduction phase (0 = default 8, negative = unlimited).
	// The cap is what keeps a batch strictly cheaper than independent
	// submissions: the per-output searches skip the dichotomic-search
	// bounds, and the reduction must not spend back more than that saves.
	BatchReduceBudget int
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
	// Zero means default, negative means disabled (normalized to 0).
	switch {
	case c.TraceJobs == 0:
		c.TraceJobs = 64
	case c.TraceJobs < 0:
		c.TraceJobs = 0
	}
	switch {
	case c.FlightEntries == 0:
		c.FlightEntries = 256
	case c.FlightEntries < 0:
		c.FlightEntries = 0
	}
	switch {
	case c.SlowTrace == 0:
		c.SlowTrace = 2 * time.Second
	case c.SlowTrace < 0:
		c.SlowTrace = 0
	}
	switch {
	case c.ProgressEvents == 0:
		c.ProgressEvents = 512
	case c.ProgressEvents < 0:
		c.ProgressEvents = 0
	}
	if c.FirstMappingSLO <= 0 {
		c.FirstMappingSLO = 10 * time.Second
	}
	switch {
	case c.BatchReduceBudget == 0:
		c.BatchReduceBudget = 8
	case c.BatchReduceBudget < 0:
		c.BatchReduceBudget = 0 // unlimited
	}
	if c.SynthSLO <= 0 {
		c.SynthSLO = 30 * time.Second
	}
	if c.JobsSLO <= 0 {
		c.JobsSLO = 100 * time.Millisecond
	}
	if c.SLOTarget <= 0 || c.SLOTarget >= 1 {
		c.SLOTarget = 0.99
	}
	// Resolved after SynthSLO/FirstMappingSLO so zero can inherit them.
	switch {
	case c.TenantSynthSLO == 0:
		c.TenantSynthSLO = c.SynthSLO
	case c.TenantSynthSLO < 0:
		c.TenantSynthSLO = 0
	}
	switch {
	case c.TenantFirstMappingSLO == 0:
		c.TenantFirstMappingSLO = c.FirstMappingSLO
	case c.TenantFirstMappingSLO < 0:
		c.TenantFirstMappingSLO = 0
	}
	if c.Logger == nil {
		c.Logger = obsv.NopLogger()
	}
}

// retainJobs bounds how many finished jobs stay pollable by id.
const retainJobs = 1024

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

	// flight is nil when the recorder is disabled; sloSynth/sloJobs are
	// nil-safe and only observed from the HTTP layer.
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
	sched      *scheduler
	cond       *sync.Cond
	inflight   map[string]*job // queued or running, by canonical key
	jobs       map[string]*job // by id, finished jobs retained
	doneOrder  []string        // finished ids, oldest first
	traceOrder []string        // finished ids still holding a trace buffer
	seq        uint64
	nonce      string

	// budgets indexes finished answers by budget-free function key, so a
	// request whose exact (function, budget) key misses can still be
	// served by an answer computed under a compatible budget (see
	// budgetHit). Guarded by budMu, not mu: lookups happen on the request
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

// job is one synthesis admitted to the queue. Mutable fields (status,
// out, waiters, async) are guarded by the server mutex; done closes when
// the job reaches a terminal status.
type job struct {
	id        string
	key       string
	requestID string // the admitting request's id, stamped on the trace
	// traceCtx is the admitting request's inbound trace context (zero
	// when none): the job's span tree roots under this remote parent so
	// the front tier can stitch its spans and ours into one trace.
	traceCtx obsv.TraceContext
	p         *parsedRequest
	bp        *parsedBatch // non-nil for batch jobs (then p is nil)
	tenant    string       // the tenant queue this job is accounted to
	shape     string       // cover shape for memo-affinity dispatch ("" for batches)
	enqueued  time.Time
	deadline  time.Time
	ctx       context.Context
	cancel    context.CancelFunc
	waiters   int
	async     bool
	status    string
	queueWait time.Duration
	trace     *obsv.TraceBuffer // nil until running, or with tracing off
	progress  *progressState    // nil with progress disabled
	out       *outcome
	done      chan struct{}
}

// fnKey returns the job's routing identity: the single function's key
// or the batch key.
func (j *job) fnKey() string {
	if j.bp != nil {
		return j.bp.fnKey
	}
	return j.p.fnKey
}

// NewServer builds the service, loads the persistent tier (results and
// the memo path snapshot), and starts the worker pool.
func NewServer(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:        cfg,
		mem:        newMemCache(cfg.MemEntries),
		sched: newScheduler(cfg.QueueDepth, cfg.TenantDefaults, cfg.Tenants, tenantSLOCfg{
			synth: cfg.TenantSynthSLO, firstMap: cfg.TenantFirstMappingSLO, target: cfg.SLOTarget,
		}),
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
	if cfg.FlightEntries > 0 {
		s.flight = newFlightRecorder(cfg.FlightEntries, cfg.SlowTrace)
	}
	s.sloSynth = obsv.NewSLO("synthesize", cfg.SynthSLO, cfg.SLOTarget)
	s.sloJobs = obsv.NewSLO("jobs", cfg.JobsSLO, cfg.SLOTarget)
	s.sloFirstMap = obsv.NewSLO("first_mapping", cfg.FirstMappingSLO, cfg.SLOTarget)
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

// Synthesize is the embedded-use entry point (the HTTP handler and the
// Client both end up here): it resolves the request against the caches,
// coalesces with an identical in-flight job or enqueues a new one, and
// waits for the outcome or ctx. A ctx that ends first abandons the job
// (which is cancelled once no waiter remains, unless async) and returns
// the job's current state so the caller can poll later.
func (s *Server) Synthesize(ctx context.Context, req Request) (*Response, error) {
	p, err := parseRequest(req)
	if err != nil {
		return nil, err
	}
	return s.synthesizeParsed(ctx, p)
}

// synthesizeParsed is Synthesize past validation. The HTTP handler
// calls it directly with the parsedRequest it already built (it needed
// the fn key and timeout before dispatch), so a request is parsed —
// covers hashed, PLA walked — exactly once on the synthesize path.
func (s *Server) synthesizeParsed(ctx context.Context, p *parsedRequest) (*Response, error) {
	start := time.Now()
	mRequests.Inc()
	reqID := obsv.RequestIDFromContext(ctx)
	if reqID == "" {
		reqID = s.newRequestID()
		ctx = obsv.ContextWithRequestID(ctx, reqID)
	}
	if out, where, ok := s.cached(p.key); ok {
		hRequestNS.Observe(int64(time.Since(start)))
		s.flight.record(FlightEntry{
			Time: start, RequestID: reqID, FnKey: fnPrefix(p.fnKey),
			Outcome: out.Status, Cached: where, Grid: outcomeGrid(out),
			TotalNS: int64(time.Since(start)),
		})
		return withMeta(respond(out, "", where), reqID, p.fnKey), nil
	}
	if out, where, ok := s.budgetHit(p); ok {
		hRequestNS.Observe(int64(time.Since(start)))
		s.flight.record(FlightEntry{
			Time: start, RequestID: reqID, FnKey: fnPrefix(p.fnKey),
			Outcome: out.Status, Cached: where, Grid: outcomeGrid(out),
			TotalNS: int64(time.Since(start)),
		})
		return withMeta(respond(out, "", where), reqID, p.fnKey), nil
	}
	// Reshard warm-up: a front tier that just moved this key here hints
	// at the previous owner; adopting its cached answer (when budget-
	// compatible) turns what would be a re-solve stampede into one HTTP
	// round trip. Any failure falls through to a normal synthesis.
	if peer := fillFrom(ctx); peer != "" {
		if out, ok := s.peerFill(ctx, peer, p); ok {
			hRequestNS.Observe(int64(time.Since(start)))
			s.flight.record(FlightEntry{
				Time: start, RequestID: reqID, FnKey: fnPrefix(p.fnKey),
				Outcome: out.Status, Cached: "peer", Grid: outcomeGrid(out),
				TotalNS: int64(time.Since(start)),
			})
			return withMeta(respond(out, "", "peer"), reqID, p.fnKey), nil
		}
	}
	j, coalesced, err := s.admit(p, nil, reqID, tenantFromContext(ctx), s.traceContext(ctx))
	if err != nil {
		// Shed and drain refusals go in the flight recorder too: a burst
		// of 429s is exactly the kind of incident it exists to replay.
		oc := outcomeShed
		if err == ErrDraining {
			oc = outcomeDraining
		}
		s.flight.record(FlightEntry{
			Time: start, RequestID: reqID, FnKey: fnPrefix(p.fnKey),
			Outcome: oc, Error: err.Error(), TotalNS: int64(time.Since(start)),
		})
		return nil, err
	}
	if p.req.Async {
		s.mu.Lock()
		resp := &Response{JobID: j.id, Status: j.status, RequestID: reqID, FnKey: p.fnKey}
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
				FnKey: fnPrefix(p.fnKey), Outcome: j.out.Status, Cached: cached,
				Grid: outcomeGrid(j.out), TotalNS: int64(time.Since(start)),
			})
		}
		return withMeta(respond(j.out, j.id, cached), reqID, p.fnKey), nil
	case <-ctx.Done():
		s.abandon(j)
		s.mu.Lock()
		resp := &Response{JobID: j.id, Status: j.status, RequestID: reqID, FnKey: p.fnKey}
		s.mu.Unlock()
		return resp, nil
	}
}

// SynthesizeBatch is the batch entry point (POST /v1/synthesize/batch):
// resolve the whole batch against the cache, coalesce with an identical
// in-flight batch, or enqueue one job that runs core.SynthesizeMulti
// over every function. Batches skip the budget index and peer fill —
// both are per-function mechanisms, and the per-function cache entries
// a finished batch unpacks are what feeds them.
func (s *Server) SynthesizeBatch(ctx context.Context, req BatchRequest) (*Response, error) {
	pb, err := parseBatch(req)
	if err != nil {
		return nil, err
	}
	return s.synthesizeBatchParsed(ctx, pb)
}

// synthesizeBatchParsed is SynthesizeBatch past validation (the HTTP
// handler parses once and calls this, like synthesizeParsed).
func (s *Server) synthesizeBatchParsed(ctx context.Context, pb *parsedBatch) (*Response, error) {
	start := time.Now()
	mRequests.Inc()
	mBatchRequests.Inc()
	reqID := obsv.RequestIDFromContext(ctx)
	if reqID == "" {
		reqID = s.newRequestID()
		ctx = obsv.ContextWithRequestID(ctx, reqID)
	}
	if out, where, ok := s.cached(pb.key); ok && out.Batch != nil {
		hRequestNS.Observe(int64(time.Since(start)))
		s.flight.record(FlightEntry{
			Time: start, RequestID: reqID, FnKey: fnPrefix(pb.fnKey),
			Outcome: out.Status, Cached: where, Grid: out.Batch.Sol,
			TotalNS: int64(time.Since(start)),
		})
		return withMeta(respond(out, "", where), reqID, pb.fnKey), nil
	}
	j, coalesced, err := s.admit(nil, pb, reqID, tenantFromContext(ctx), s.traceContext(ctx))
	if err != nil {
		oc := outcomeShed
		if err == ErrDraining {
			oc = outcomeDraining
		}
		s.flight.record(FlightEntry{
			Time: start, RequestID: reqID, FnKey: fnPrefix(pb.fnKey),
			Outcome: oc, Error: err.Error(), TotalNS: int64(time.Since(start)),
		})
		return nil, err
	}
	if pb.req.Async {
		s.mu.Lock()
		resp := &Response{JobID: j.id, Status: j.status, RequestID: reqID, FnKey: pb.fnKey}
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
			s.flight.record(FlightEntry{
				Time: start, RequestID: reqID, JobID: j.id, CoalescedInto: j.id,
				FnKey: fnPrefix(pb.fnKey), Outcome: j.out.Status, Cached: cached,
				TotalNS: int64(time.Since(start)),
			})
		}
		return withMeta(respond(j.out, j.id, cached), reqID, pb.fnKey), nil
	case <-ctx.Done():
		s.abandon(j)
		s.mu.Lock()
		resp := &Response{JobID: j.id, Status: j.status, RequestID: reqID, FnKey: pb.fnKey}
		s.mu.Unlock()
		return resp, nil
	}
}

// newRequestID mints a process-unique request id.
func (s *Server) newRequestID() string {
	return fmt.Sprintf("r%s-%d", s.nonce, s.reqSeq.Add(1))
}

// traceContext reads the inbound trace context for a request, honoring
// the propagation switch (a job admitted while propagation is off roots
// its trace locally).
func (s *Server) traceContext(ctx context.Context) obsv.TraceContext {
	if s.cfg.DisableTracePropagation {
		return obsv.TraceContext{}
	}
	tc, _ := obsv.TraceContextFromContext(ctx)
	return tc
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

// outcomeGrid formats a done outcome's lattice shape ("3x4").
func outcomeGrid(out *outcome) string {
	if out == nil || out.Result == nil {
		return ""
	}
	return fmt.Sprintf("%dx%d", out.Result.M, out.Result.N)
}

// cached resolves a key against the memory tier and then the disk tier,
// promoting disk hits into memory.
func (s *Server) cached(key string) (*outcome, string, bool) {
	if out, ok := s.mem.get(key); ok {
		mMemHits.Inc()
		return out, "mem", true
	}
	if out, ok := s.disk.get(key); ok {
		mDiskHits.Inc()
		s.mem.put(key, out)
		return out, "disk", true
	}
	mCacheMiss.Inc()
	return nil, "", false
}

// admit coalesces the request onto an identical in-flight job or
// enqueues a new one under the tenant's fairness rules, all under the
// mutex so admission cannot race drain. Exactly one of p / bp is
// non-nil (single vs batch job).
func (s *Server) admit(p *parsedRequest, bp *parsedBatch, reqID, tenant string, tc obsv.TraceContext) (*job, bool, error) {
	var key, shape string
	var timeout time.Duration
	var async bool
	if bp != nil {
		key = bp.key
		timeout = bp.timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
		async = bp.req.Async
	} else {
		key = p.key
		timeout = p.timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
		async = p.req.Async
		// The cover's inputs×products shape is the memo-affinity signal:
		// same shape means the path-enumeration memos for the probed grids
		// are likely hot from the previous dispatch.
		shape = fmt.Sprintf("%dx%d", p.cover.N, len(p.cover.Cubes))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	if j, ok := s.inflight[key]; ok {
		// Coalescing is keyed by the canonical request, not the tenant:
		// two tenants asking the same question share one synthesis (the
		// answer is identical), accounted to whichever tenant asked first.
		j.waiters++
		if async {
			j.async = true
		}
		mCoalesced.Inc()
		return j, true, nil
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j%s-%d", s.nonce, s.seq),
		key:       key,
		requestID: reqID,
		traceCtx:  tc,
		p:         p,
		bp:        bp,
		tenant:    tenant,
		shape:     shape,
		enqueued:  time.Now(),
		deadline:  time.Now().Add(timeout),
		waiters:   1,
		async:     async,
		status:    StatusQueued,
		done:      make(chan struct{}),
	}
	if bp == nil && s.cfg.ProgressEvents > 0 {
		// Created at admission so the events stream exists (and buffers)
		// from the first queued moment, not only once a worker picks the
		// job up. Batch jobs carry no progress stream: the per-output
		// searches would interleave into one incoherent event sequence.
		j.progress = newProgressState(s.cfg.ProgressEvents, j.enqueued)
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
	s.inflight[key] = j
	s.jobs[j.id] = j
	s.cond.Signal()
	s.log.Info("job queued", "job_id", j.id, "request_id", reqID,
		"fn_key", fnPrefix(j.fnKey()), "tenant", j.tenant, "batch", bp != nil,
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
	resp.FnKey = j.fnKey()
	// The inline snapshot is what makes a plain poll "anytime": a caller
	// that never opens the events stream still sees the bounds close in.
	resp.Progress = j.progress.snapshot()
	return resp, true
}

// JobEvents returns a job's progress stream handle for the events
// endpoint: the state (nil when progress is disabled) plus whether the
// job exists at all.
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
		if j.bp != nil {
			s.runBatch(j)
		} else {
			s.run(j)
		}
		s.mu.Lock()
		s.sched.complete(j.tenant)
		// Completion may unblock an in-flight-capped tenant, another
		// waiting worker, or the drain loop.
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// run executes one job: skip it when already cancelled in the queue,
// otherwise synthesize under the job context — with the job's tracer,
// span, and request id carried in it — and publish the outcome, one
// flight entry per job.
func (s *Server) run(j *job) {
	var jobSpan *obsv.Span
	s.mu.Lock()
	if j.ctx.Err() == context.Canceled {
		j.progress.finish(StatusCanceled, 0, 0, false)
		s.finishLocked(j, &outcome{Status: StatusCanceled, Error: "canceled while queued"})
		s.mu.Unlock()
		s.flight.record(FlightEntry{
			Time: j.enqueued, RequestID: j.requestID, JobID: j.id,
			FnKey: fnPrefix(j.p.fnKey), Outcome: StatusCanceled,
			Error: "canceled while queued", TotalNS: int64(time.Since(j.enqueued)),
		})
		s.log.Info("job canceled while queued", "job_id", j.id, "request_id", j.requestID)
		return
	}
	j.status = StatusRunning
	j.queueWait = time.Since(j.enqueued)
	if s.cfg.TraceJobs > 0 {
		// j.trace is assigned under the mutex so JobTrace never races it.
		j.trace = obsv.NewTraceBuffer(s.cfg.TraceSpans, s.cfg.TraceBytes)
		tracer := obsv.NewTracer(j.trace)
		if j.traceCtx.Valid() {
			// An inbound X-Janus-Trace header roots this job under the
			// remote caller's span: the tracer stamps the fleet trace id and
			// process tag on every span, and Job carries the advisory
			// remote parent the front resolves when stitching.
			tracer.SetTrace(j.traceCtx.TraceID, "janusd")
		}
		jobSpan = obsv.StartRemote(tracer, j.traceCtx.Parent, "Job")
	}
	tq := s.sched.tenant(j.tenant)
	s.mu.Unlock()
	hQueueWaitNS.Observe(int64(j.queueWait))
	tq.observeQueueWait("synthesize", j.queueWait)

	jobSpan.SetStr("job_id", j.id)
	jobSpan.SetStr("request_id", j.requestID)
	jobSpan.SetStr("fn_key", fnPrefix(j.p.fnKey))
	jobSpan.SetInt("queue_wait_ns", int64(j.queueWait))
	ctx := obsv.ContextWithRequestID(j.ctx, j.requestID)
	if jobSpan != nil {
		ctx = obsv.ContextWithSpan(obsv.ContextWithTracer(ctx, jobSpan.Tracer()), jobSpan)
	}
	if j.progress != nil {
		ctx = obsv.ContextWithProgress(ctx, j.progress)
	}

	gRunning.Add(1)
	started := time.Now()
	opt := j.p.coreOptions()
	opt.Ctx = ctx
	opt.Workers = s.cfg.SynthWorkers
	opt.Deadline = j.deadline
	res, err := s.synth(j.p.cover, opt)
	solve := time.Since(started)
	gRunning.Add(-1)
	hSolveNS.Observe(int64(solve))
	ctxErr := j.ctx.Err() // read before cancel() makes it context.Canceled
	j.cancel()            // release the deadline timer

	var out *outcome
	switch {
	case err != nil:
		mJobErrors.Inc()
		out = &outcome{Status: StatusError, Error: err.Error()}
	case ctxErr == context.Canceled && res.Assignment == nil:
		// Abandoned before the bounds phase produced anything: there is
		// no answer to degrade to.
		mCanceled.Inc()
		out = &outcome{Status: StatusCanceled, Error: "canceled"}
	case ctxErr == context.Canceled:
		// Cancelled mid-run with a verified incumbent in hand: that IS an
		// answer — publish it as done (partial when the bounds had not
		// met) so pollers and coalesced followers get the mapping instead
		// of a bare "canceled". But a cancelled run used less than its
		// nominal budget, so a partial answer here must never enter the
		// caches: under the exact (function, budget) key it would claim
		// "this is what that budget buys", which a fuller run could beat.
		// A converged answer (bounds met) is exact for any budget and
		// caches normally.
		mJobsDone.Inc()
		out = &outcome{Status: StatusDone, Result: renderResult(res, j.p.names)}
		if res.Partial {
			mPartial.Inc()
		} else {
			s.mem.put(j.key, out)
			s.disk.put(j.key, out)
			s.recordBudget(j.p, res.MatchedLB)
		}
	default:
		// Deadline expiry is not an error: the search returns its best
		// verified incumbent, which is the agreed answer for this budget
		// (timeout_ms is part of the cache key, and the budget index only
		// ever serves a non-MatchedLB answer to same-or-smaller budgets).
		mJobsDone.Inc()
		if res.Partial {
			mPartial.Inc()
		}
		out = &outcome{Status: StatusDone, Result: renderResult(res, j.p.names)}
		s.mem.put(j.key, out)
		s.disk.put(j.key, out)
		s.recordBudget(j.p, res.MatchedLB)
	}
	if j.progress != nil {
		// Anytime SLO: enqueue to first verified mapping. Jobs that never
		// held one count as misses at their total latency or just past
		// the objective, whichever is worse.
		fm := j.progress.firstMappingAt()
		if fm == 0 {
			fm = j.queueWait + solve
			if fm <= s.cfg.FirstMappingSLO {
				fm = s.cfg.FirstMappingSLO + 1
			}
		} else {
			hFirstMappingNS.Observe(int64(fm))
		}
		s.sloFirstMap.Observe(fm)
		tq.observeFirstMapping(fm)
		finalLB, finalUB := 0, 0
		if out.Result != nil {
			finalLB, finalUB = out.Result.FinalLB, out.Result.Size
		}
		j.progress.finish(out.Status, finalLB, finalUB, out.Result != nil && out.Result.Partial)
	}
	jobSpan.SetStr("outcome", out.Status)
	if out.Result != nil {
		jobSpan.SetInt("size", int64(out.Result.Size))
	}
	jobSpan.End() // last span to end: survives any buffer eviction

	total := j.queueWait + solve
	tq.observeE2E("synthesize", total)
	entry := FlightEntry{
		Time: j.enqueued, RequestID: j.requestID, JobID: j.id,
		FnKey: fnPrefix(j.p.fnKey), Outcome: out.Status, Error: out.Error,
		Grid: outcomeGrid(out), GridsProbed: res.GridsProbed,
		QueueWaitNS: int64(j.queueWait), SolveNS: int64(solve), TotalNS: int64(total),
	}
	if out.Result != nil {
		entry.FinalLB, entry.FinalUB = out.Result.FinalLB, out.Result.Size
		entry.Partial = out.Result.Partial
	}
	if s.flight.shouldPin(out.Status, entry.Partial, total) {
		if b := j.trace.Bytes(); len(b) > 0 {
			s.flight.pin(j.id, b)
			entry.TracePinned = true
		}
	}
	s.flight.record(entry)
	s.log.Info("job finished", "job_id", j.id, "request_id", j.requestID,
		"outcome", out.Status, "grid", entry.Grid,
		"partial", entry.Partial, "final_lb", entry.FinalLB,
		"queue_wait_ms", j.queueWait.Milliseconds(), "solve_ms", solve.Milliseconds(),
		"trace_pinned", entry.TracePinned)

	s.mu.Lock()
	s.finishLocked(j, out)
	s.mu.Unlock()
}

// runBatch executes one batch job: every function through one
// core.SynthesizeMulti call under the job context. A finished batch is
// cached whole under the batch key AND unpacked per function, so later
// single-function requests for anything the batch contained hit the
// cache instead of re-solving.
func (s *Server) runBatch(j *job) {
	var jobSpan *obsv.Span
	s.mu.Lock()
	if j.ctx.Err() == context.Canceled {
		s.finishLocked(j, &outcome{Status: StatusCanceled, Error: "canceled while queued"})
		s.mu.Unlock()
		s.flight.record(FlightEntry{
			Time: j.enqueued, RequestID: j.requestID, JobID: j.id,
			FnKey: fnPrefix(j.bp.fnKey), Outcome: StatusCanceled,
			Error: "canceled while queued", TotalNS: int64(time.Since(j.enqueued)),
		})
		s.log.Info("batch canceled while queued", "job_id", j.id, "request_id", j.requestID)
		return
	}
	j.status = StatusRunning
	j.queueWait = time.Since(j.enqueued)
	if s.cfg.TraceJobs > 0 {
		j.trace = obsv.NewTraceBuffer(s.cfg.TraceSpans, s.cfg.TraceBytes)
		tracer := obsv.NewTracer(j.trace)
		if j.traceCtx.Valid() {
			tracer.SetTrace(j.traceCtx.TraceID, "janusd")
		}
		jobSpan = obsv.StartRemote(tracer, j.traceCtx.Parent, "BatchJob")
	}
	tq := s.sched.tenant(j.tenant)
	s.mu.Unlock()
	hQueueWaitNS.Observe(int64(j.queueWait))
	tq.observeQueueWait("synthesize_batch", j.queueWait)

	jobSpan.SetStr("job_id", j.id)
	jobSpan.SetStr("request_id", j.requestID)
	jobSpan.SetStr("fn_key", fnPrefix(j.bp.fnKey))
	jobSpan.SetInt("outputs", int64(len(j.bp.fns)))
	jobSpan.SetInt("queue_wait_ns", int64(j.queueWait))
	ctx := obsv.ContextWithRequestID(j.ctx, j.requestID)
	if jobSpan != nil {
		ctx = obsv.ContextWithSpan(obsv.ContextWithTracer(ctx, jobSpan.Tracer()), jobSpan)
	}

	gRunning.Add(1)
	started := time.Now()
	covers := make([]cube.Cover, len(j.bp.fns))
	for i, p := range j.bp.fns {
		covers[i] = p.cover
	}
	opt := j.bp.coreOptions(s.cfg.BatchReduceBudget)
	opt.Ctx = ctx
	opt.Workers = s.cfg.SynthWorkers
	opt.Deadline = j.deadline
	mr, err := s.synthMulti(covers, opt, j.bp.reduce)
	solve := time.Since(started)
	gRunning.Add(-1)
	hSolveNS.Observe(int64(solve))
	ctxErr := j.ctx.Err() // read before cancel() makes it context.Canceled
	j.cancel()

	var out *outcome
	switch {
	case err != nil && ctxErr == context.Canceled:
		mCanceled.Inc()
		out = &outcome{Status: StatusCanceled, Error: "canceled"}
	case err != nil:
		mJobErrors.Inc()
		out = &outcome{Status: StatusError, Error: err.Error()}
	default:
		mJobsDone.Inc()
		out = &outcome{Status: StatusDone, Batch: renderBatch(mr, j.bp)}
		if ctxErr != context.Canceled {
			// Same rule as single jobs: an answer produced under less than
			// its nominal budget (cancel) must not enter the caches; a
			// deadline-bounded answer is the agreed product of this budget
			// and caches under the exact batch key.
			s.mem.put(j.key, out)
			s.disk.put(j.key, out)
			s.unpackBatch(j.bp, mr)
		}
	}
	jobSpan.SetStr("outcome", out.Status)
	if out.Batch != nil {
		jobSpan.SetInt("size", int64(out.Batch.Size))
		jobSpan.SetInt("lm_solved", int64(out.Batch.LMSolved))
	}
	jobSpan.End()

	total := j.queueWait + solve
	tq.observeE2E("synthesize_batch", total)
	entry := FlightEntry{
		Time: j.enqueued, RequestID: j.requestID, JobID: j.id,
		FnKey: fnPrefix(j.bp.fnKey), Outcome: out.Status, Error: out.Error,
		QueueWaitNS: int64(j.queueWait), SolveNS: int64(solve), TotalNS: int64(total),
	}
	if out.Batch != nil {
		entry.Grid = out.Batch.Sol
		entry.FinalUB = out.Batch.Size
	}
	if s.flight.shouldPin(out.Status, false, total) {
		if b := j.trace.Bytes(); len(b) > 0 {
			s.flight.pin(j.id, b)
			entry.TracePinned = true
		}
	}
	s.flight.record(entry)
	s.log.Info("batch finished", "job_id", j.id, "request_id", j.requestID,
		"outcome", out.Status, "outputs", len(j.bp.fns), "grid", entry.Grid,
		"tenant", j.tenant, "queue_wait_ms", j.queueWait.Milliseconds(),
		"solve_ms", solve.Milliseconds())

	s.mu.Lock()
	s.finishLocked(j, out)
	s.mu.Unlock()
}

// unpackBatch stores each converged per-output answer under the cache
// identity a single-function request with the same options and budget
// would use. A non-partial part's bounds met, so it is provably minimum
// in the candidate space regardless of how the search was bounded —
// exactly what a dedicated single run would have produced. Partial
// parts are skipped: the batch's shared deadline says nothing about
// what a dedicated budget would have bought that function.
func (s *Server) unpackBatch(pb *parsedBatch, mr *core.MultiResult) {
	for i, p := range pb.fns {
		r := mr.Parts[i]
		if r.Partial || r.Assignment == nil {
			continue
		}
		out := &outcome{Status: StatusDone, Result: renderResult(r, p.names)}
		s.mem.put(p.key, out)
		s.disk.put(p.key, out)
		s.recordBudget(p, r.MatchedLB)
		mBatchUnpacked.Inc()
	}
}

// finishLocked publishes a terminal outcome: the key frees for new
// submissions, waiters wake, and the job stays pollable within the
// retention window.
func (s *Server) finishLocked(j *job, out *outcome) {
	j.out = out
	j.status = out.Status
	delete(s.inflight, j.key)
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > retainJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
	// Traces are retained on a shorter window than job states: beyond
	// TraceJobs finished jobs only the flight recorder's pins survive.
	if j.trace != nil {
		s.traceOrder = append(s.traceOrder, j.id)
		for len(s.traceOrder) > s.cfg.TraceJobs {
			if oj, ok := s.jobs[s.traceOrder[0]]; ok {
				oj.trace = nil
			}
			s.traceOrder = s.traceOrder[1:]
		}
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
	// ErrNoTrace: the job finished but no trace is retained (tracing
	// disabled, or evicted from the TraceJobs window without a pin).
	ErrNoTrace = fmt.Errorf("service: no trace retained")
)

// JobTrace returns a finished job's span trace as JSONL (the schema
// obsv.ValidateTrace checks). Pinned traces in the flight recorder are
// consulted as a fallback, so slow or failed jobs stay inspectable after
// the normal retention window moves past them.
func (s *Server) JobTrace(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var buf *obsv.TraceBuffer
	var finished bool
	if ok {
		finished = j.out != nil
		buf = j.trace
	}
	s.mu.Unlock()
	if !ok {
		if b, pinned := s.flight.pinnedTrace(id); pinned {
			return b, nil
		}
		return nil, ErrUnknownJob
	}
	if !finished {
		return nil, ErrNotFinished
	}
	if buf == nil {
		if b, pinned := s.flight.pinnedTrace(id); pinned {
			return b, nil
		}
		return nil, ErrNoTrace
	}
	return buf.Bytes(), nil
}

// Flight returns the flight recorder's current contents (empty when the
// recorder is disabled).
func (s *Server) Flight() FlightDump {
	return s.flight.dump()
}

// FlightEnabled reports whether the recorder is on.
func (s *Server) FlightEnabled() bool { return s.flight != nil }

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
	// affinity totals. Optional on the wire (older daemons omit it).
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
	traced := len(s.traceOrder)
	sched := s.sched.stats()
	s.mu.Unlock()
	return Stats{
		Draining: draining, QueueDepth: depth, QueueCapacity: s.cfg.QueueDepth,
		Running: gRunning.Value(), Workers: s.cfg.Workers,
		DiskEntries: s.disk.len(), MemoLoaded: gMemoLoaded.Value(),
		TracedJobs: traced, Scheduler: &sched,
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
