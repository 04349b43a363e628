package front

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/service"
)

// Config sizes the front tier. Backends is required; everything else
// has usable defaults.
type Config struct {
	// Backends are the janusd base URLs this front shards across.
	Backends []string
	// HealthInterval is the /healthz poll period (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 2s).
	HealthTimeout time.Duration
	// FailAfter ejects a backend after this many consecutive failed
	// probes (default 2); one good probe re-admits it.
	FailAfter int
	// Retry429 bounds how many times a backpressured (429) forward is
	// retried against the same backend, paced by its Retry-After
	// (default 2). Spilling a 429 to another shard would defeat the
	// backpressure, so after the retries the 429 passes through.
	Retry429 int
	// RetryAfterCap caps how long one Retry-After pause may sleep
	// (default 2s) so a hostile or confused header cannot park the
	// proxy goroutine.
	RetryAfterCap time.Duration
	// StatsTimeout bounds each backend's share of a merged /v1/stats or
	// /metrics/prom fan-out — the deadline is per backend, so one stalled
	// member delays the merge by at most this much and is reported as a
	// laggard instead of sinking the whole response (default 2s).
	StatsTimeout time.Duration
	// Logger receives JSON access and lifecycle logs; nil discards.
	Logger *slog.Logger
}

func (c *Config) fill() error {
	if len(c.Backends) == 0 {
		return fmt.Errorf("front: no backends configured")
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.FailAfter < 1 {
		c.FailAfter = 2
	}
	if c.Retry429 < 0 {
		c.Retry429 = 0
	} else if c.Retry429 == 0 {
		c.Retry429 = 2
	}
	if c.RetryAfterCap <= 0 {
		c.RetryAfterCap = 2 * time.Second
	}
	if c.StatsTimeout <= 0 {
		c.StatsTimeout = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obsv.NopLogger()
	}
	return nil
}

// traceJobs bounds how many routed jobs keep the front's own span trace,
// the Route/Attempt tree GET /v1/jobs/{id}/trace stitches onto the
// backend's stream.
const traceJobs = 256

// backendState is one backend's health bookkeeping, owned by the
// poller; the serving path reads it only through the shard map and the
// stats snapshot.
type backendState struct {
	backend Backend
	client  *service.Client // short-timeout client for probes

	mu         sync.Mutex
	healthy    bool
	fails      int  // consecutive probe failures
	flips      int  // membership transitions (for stats)
	queueDepth int  // from the last good probe
	queueCap   int  //
	draining   bool //
	lastErr    string
}

// Front is the sharding proxy. Create with New, serve Handler, stop
// with Close.
type Front struct {
	cfg    Config
	shards *shardMap
	states []*backendState // same order as cfg.Backends
	byID   map[string]*backendState
	log    *slog.Logger

	nonce  string
	reqSeq atomic.Uint64

	// traces retains the front's own span tree per routed job, keyed by
	// the client-visible (shard-qualified) job id.
	traces *obsv.TraceStore

	pollCancel context.CancelFunc
	pollDone   chan struct{}

	// Counters mirrored into the obsv registry; kept as fields too so
	// the stats endpoint reports this front instance, not the process.
	nRouted    atomic.Int64
	nFailovers atomic.Int64
	nRetries   atomic.Int64
	nFillHints atomic.Int64
	nNoBackend atomic.Int64
}

// BackendID derives the stable shard identity from a backend URL: its
// host:port, which survives front restarts and -backends reordering.
func BackendID(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("front: backend %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("front: backend %q: need http(s) URL", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("front: backend %q: no host", raw)
	}
	return u.Host, nil
}

// New builds the front tier and starts its health poller.
func New(cfg Config) (*Front, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	f := &Front{
		cfg:    cfg,
		byID:   make(map[string]*backendState, len(cfg.Backends)),
		log:    cfg.Logger,
		traces: obsv.NewTraceStore(traceJobs),
	}
	var members []Backend
	for _, raw := range cfg.Backends {
		id, err := BackendID(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := f.byID[id]; dup {
			return nil, fmt.Errorf("front: duplicate backend %q", id)
		}
		b := Backend{ID: id, URL: raw}
		st := &backendState{
			backend: b,
			healthy: true,
			client:  service.NewClient(raw, service.WithTimeout(cfg.HealthTimeout)),
		}
		members = append(members, b)
		f.states = append(f.states, st)
		f.byID[id] = st
	}
	f.shards = newShardMap(members)
	gBackendsTotal.Set(int64(len(members)))
	gBackendsHealthy.Set(int64(len(members)))

	var nonce [4]byte
	rand.Read(nonce[:]) //nolint:errcheck // crypto/rand never fails on supported platforms
	f.nonce = hex.EncodeToString(nonce[:])

	ctx, cancel := context.WithCancel(context.Background())
	f.pollCancel = cancel
	f.pollDone = make(chan struct{})
	go f.pollLoop(ctx)
	return f, nil
}

// Close stops the health poller. The handler keeps working (against the
// last-known membership); callers normally close the listener first.
func (f *Front) Close() {
	f.pollCancel()
	<-f.pollDone
}

// pollLoop probes every backend each interval, concurrently, and feeds
// verdicts into the shard map. The first round runs immediately so a
// front started against a dead backend converges within one probe
// timeout, not one interval.
func (f *Front) pollLoop(ctx context.Context) {
	defer close(f.pollDone)
	tick := time.NewTicker(f.cfg.HealthInterval)
	defer tick.Stop()
	for {
		var wg sync.WaitGroup
		for _, st := range f.states {
			wg.Add(1)
			go func(st *backendState) {
				defer wg.Done()
				f.probe(ctx, st)
			}(st)
		}
		wg.Wait()
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// probe runs one health check and applies the eject/re-admit policy: a
// draining backend counts as failed (it is leaving; stop routing to it
// before its socket goes), FailAfter consecutive failures eject, one
// success re-admits.
func (f *Front) probe(ctx context.Context, st *backendState) {
	stats, err := st.client.Health(ctx)
	good := err == nil && !stats.Draining

	st.mu.Lock()
	if err != nil {
		st.lastErr = err.Error()
		// A drain answers 503; surfacing "draining" beats a bare status
		// code in front stats.
		var ae *service.APIError
		if errors.As(err, &ae) && ae.Code == 503 {
			st.draining = true
		}
	} else {
		st.lastErr = ""
		st.draining = stats.Draining
		st.queueDepth = stats.QueueDepth
		st.queueCap = stats.QueueCapacity
	}
	if good {
		st.fails = 0
	} else {
		st.fails++
	}
	wasHealthy := st.healthy
	switch {
	case good && !st.healthy:
		st.healthy = true
		st.flips++
	case !good && st.healthy && st.fails >= f.cfg.FailAfter:
		st.healthy = false
		st.flips++
	}
	nowHealthy := st.healthy
	st.mu.Unlock()

	if wasHealthy != nowHealthy {
		if f.shards.setAlive(st.backend.ID, nowHealthy) {
			epoch, live := f.shards.snapshot()
			healthy := 0
			for _, ok := range live {
				if ok {
					healthy++
				}
			}
			gBackendsHealthy.Set(int64(healthy))
			mMembershipChanges.Inc()
			f.log.Info("shard map changed", "backend", st.backend.ID,
				"healthy", nowHealthy, "epoch", epoch, "healthy_backends", healthy)
		}
	}
}

// newRequestID mints a front-unique request id (honored by the
// backends, so one id names the request end to end — and doubles as the
// fleet trace id, see routeSynthesize).
func (f *Front) newRequestID() string {
	return fmt.Sprintf("f%s-%d", f.nonce, f.reqSeq.Add(1))
}
