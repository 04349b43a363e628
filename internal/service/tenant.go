package service

import (
	"context"
	"fmt"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
)

// Multi-tenant scheduling: the daemon serves more than one submitter,
// and a bulk submitter must not be able to starve interactive traffic
// just by being first into the queue. Jobs are accounted to a tenant
// (the X-Janus-Tenant header, "default" otherwise) and dispatched by a
// weighted deficit-round-robin scheduler: each tenant holds its own
// FIFO, dispatching costs one deficit unit, and deficits refill in
// proportion to the configured weights — so over any contended window
// tenants complete work in proportion to their weights, while an
// uncontended daemon behaves exactly like the old single queue.
//
// Admission is bounded twice: the global QueueDepth first (ErrBusy, as
// before), then the tenant's own queue share (ErrTenantBusy) — a tenant
// that fills its share is shed with 429 + Retry-After even while other
// tenants still admit, which is the isolation property the shares exist
// for.

// TenantConfig sizes one tenant's share of the daemon.
type TenantConfig struct {
	// Weight is the tenant's DRR weight: over a contended period
	// runnable tenants are granted dispatch slots in proportion to their
	// weights (default 1).
	Weight int
	// QueueShare bounds this tenant's queued-but-not-running backlog; a
	// tenant at its share is shed with 429 even while the global queue
	// still has room (default: the global QueueDepth).
	QueueShare int
	// MaxInFlight bounds this tenant's concurrently running jobs; jobs
	// over the cap stay queued rather than shed (default: unlimited,
	// i.e. only the worker pool bounds it).
	MaxInFlight int
}

// DefaultTenant is the tenant jobs without an X-Janus-Tenant header (or
// with an unusable one) are accounted to.
const DefaultTenant = "default"

// maxTrackedTenants bounds the scheduler's per-tenant state and metric
// cardinality: the X-Janus-Tenant header is client-controlled, so an
// attacker could otherwise mint unbounded tenant queues and gauges.
// Past the cap, unseen tenant names fold into the default tenant.
const maxTrackedTenants = 64

// ErrTenantBusy: this tenant's queue share is exhausted while the
// daemon as a whole still admits. It wraps ErrBusy so the HTTP mapping
// (429 + Retry-After) is unchanged; the distinction shows up in the
// per-tenant shed counters and stats.
var ErrTenantBusy = fmt.Errorf("tenant queue share exhausted: %w", ErrBusy)

// tenantQ is one tenant's FIFO plus its DRR accounting. All fields are
// guarded by Server.mu.
type tenantQ struct {
	name string
	cfg  TenantConfig

	jobs     []*job // FIFO
	deficit  int
	inFlight int

	admitted   int64
	dispatched int64
	completed  int64
	shed       int64

	gDepth  *obsv.Gauge
	mAdmits *obsv.Counter
	mSheds  *obsv.Counter

	// Per-tenant latency objectives: sloSynth measures job end-to-end
	// time (queue wait + solve) against synthSLO, sloFirstMap the anytime
	// first-mapping objective. Both publish tenant-labeled burn gauges, so
	// one tenant burning budget is visible next to the fleet-wide
	// endpoint SLOs.
	sloSynth    *obsv.SLO
	sloFirstMap *obsv.SLO
}

// observeQueueWait feeds one dispatched job's queue wait into the
// tenant-labeled histogram. Safe outside Server.mu: histograms and SLOs
// are internally synchronized.
func (tq *tenantQ) observeQueueWait(endpoint string, d time.Duration) {
	obsv.Default.HistogramWith("janus_service_tenant_queue_wait_ns",
		"tenant", tq.name, "endpoint", endpoint).Observe(int64(d))
}

// observeE2E feeds one finished job's end-to-end latency (queue wait +
// solve) into the tenant-labeled histogram and the tenant synth SLO.
func (tq *tenantQ) observeE2E(endpoint string, d time.Duration) {
	obsv.Default.HistogramWith("janus_service_tenant_e2e_ns",
		"tenant", tq.name, "endpoint", endpoint).Observe(int64(d))
	tq.sloSynth.Observe(d)
}

// observeFirstMapping feeds the tenant's anytime objective.
func (tq *tenantQ) observeFirstMapping(d time.Duration) {
	tq.sloFirstMap.Observe(d)
}

// scheduler is the weighted deficit-round-robin dispatcher. It is not
// self-locking: every method runs under Server.mu.
type scheduler struct {
	defaults TenantConfig
	capTotal int

	tenants map[string]*tenantQ
	order   []*tenantQ // creation order; rr indexes into it
	rr      int
	total   int // queued jobs across all tenants

	rounds       int64 // deficit refill rounds
	dispatchedTV int64 // dispatched total
}

// normalizeTenantConfig resolves zero fields against the scheduler's
// global bounds (the Config.fill convention: zero means default).
func normalizeTenantConfig(cfg TenantConfig, capTotal int) TenantConfig {
	if cfg.Weight < 1 {
		cfg.Weight = 1
	}
	if cfg.QueueShare < 1 || cfg.QueueShare > capTotal {
		cfg.QueueShare = capTotal
	}
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 1 << 30 // effectively unlimited; the worker pool bounds it
	}
	return cfg
}

func newScheduler(capTotal int, defaults TenantConfig, tenants map[string]TenantConfig) *scheduler {
	sc := &scheduler{
		defaults: normalizeTenantConfig(defaults, capTotal),
		capTotal: capTotal,
		tenants:  make(map[string]*tenantQ),
	}
	// The default tenant always exists, so folding past the tracking cap
	// has somewhere to land.
	sc.addTenant(DefaultTenant, sc.defaults)
	for name, cfg := range tenants {
		name = sanitizeTenant(name)
		if _, ok := sc.tenants[name]; ok {
			sc.tenants[name].cfg = normalizeTenantConfig(cfg, capTotal)
			continue
		}
		sc.addTenant(name, normalizeTenantConfig(cfg, capTotal))
	}
	return sc
}

func (sc *scheduler) addTenant(name string, cfg TenantConfig) *tenantQ {
	tq := &tenantQ{
		name: name, cfg: cfg, deficit: cfg.Weight,
		gDepth:  obsv.Default.Gauge(obsv.LabeledName("janus_service_tenant_queue_depth", "tenant", name)),
		mAdmits: obsv.Default.Counter(obsv.LabeledName("janus_service_tenant_admits_total", "tenant", name)),
		mSheds:  obsv.Default.Counter(obsv.LabeledName("janus_service_tenant_sheds_total", "tenant", name)),

		sloSynth:    obsv.NewSLO("synthesize", synthSLO, sloTarget),
		sloFirstMap: obsv.NewSLO("first_mapping", firstMappingSLO, sloTarget),
	}
	tq.sloSynth.RegisterLabeled(obsv.Default, "janus_service_tenant_slo_synthesize", "tenant", name)
	tq.sloFirstMap.RegisterLabeled(obsv.Default, "janus_service_tenant_slo_first_mapping", "tenant", name)
	sc.tenants[name] = tq
	sc.order = append(sc.order, tq)
	return tq
}

// tenant resolves a name to its queue, lazily creating one with the
// default config for first-seen names, folding into the default tenant
// past the tracking cap.
func (sc *scheduler) tenant(name string) *tenantQ {
	if tq, ok := sc.tenants[name]; ok {
		return tq
	}
	if len(sc.tenants) >= maxTrackedTenants {
		return sc.tenants[DefaultTenant]
	}
	return sc.addTenant(name, sc.defaults)
}

// enqueue admits one job under the fairness rules: the global bound
// first (ErrBusy, exactly the old single-queue behavior), then the
// tenant's own share (ErrTenantBusy). On success the job's tenant field
// holds the queue it was accounted to (folded names rewrite it).
func (sc *scheduler) enqueue(j *job) error {
	if sc.total >= sc.capTotal {
		return ErrBusy
	}
	tq := sc.tenant(j.tenant)
	j.tenant = tq.name
	if len(tq.jobs) >= tq.cfg.QueueShare {
		tq.shed++
		tq.mSheds.Inc()
		return ErrTenantBusy
	}
	tq.jobs = append(tq.jobs, j)
	tq.admitted++
	tq.mAdmits.Inc()
	sc.total++
	tq.gDepth.Set(int64(len(tq.jobs)))
	return nil
}

// pick chooses the next job to dispatch, or nil when no tenant has a
// runnable job (all queues empty, or every backlogged tenant is at its
// in-flight cap).
//
// DRR invariants:
//   - a tenant is eligible when it has queued jobs, spare in-flight
//     budget, and a positive deficit;
//   - dispatching costs one deficit unit, so over a contended window
//     completed work tracks the weight ratios;
//   - when runnable tenants exist but none has deficit left, every
//     runnable tenant's deficit refills by its weight, capped at two
//     rounds' worth so an idle tenant cannot bank an unbounded burst;
//   - the cursor advances past the picked tenant, so equal weights
//     interleave instead of clumping.
func (sc *scheduler) pick() *job {
	for pass := 0; pass < 2; pass++ {
		n := len(sc.order)
		for i := 0; i < n; i++ {
			tq := sc.order[(sc.rr+i)%n]
			if len(tq.jobs) == 0 || tq.inFlight >= tq.cfg.MaxInFlight || tq.deficit < 1 {
				continue
			}
			sc.rr = (sc.rr + i + 1) % n
			tq.deficit--
			return sc.take(tq)
		}
		runnable := false
		for _, tq := range sc.order {
			if len(tq.jobs) > 0 && tq.inFlight < tq.cfg.MaxInFlight {
				runnable = true
				tq.deficit += tq.cfg.Weight
				if lim := 2 * tq.cfg.Weight; tq.deficit > lim {
					tq.deficit = lim
				}
			}
		}
		if !runnable {
			return nil
		}
		sc.rounds++
		mSchedRefills.Inc()
	}
	// Unreachable: a refill leaves some runnable tenant with deficit ≥ 1.
	return nil
}

// take removes the head of a tenant's FIFO for dispatch.
func (sc *scheduler) take(tq *tenantQ) *job {
	j := tq.jobs[0]
	tq.jobs = append(tq.jobs[:0], tq.jobs[1:]...)
	tq.inFlight++
	tq.dispatched++
	sc.dispatchedTV++
	sc.total--
	tq.gDepth.Set(int64(len(tq.jobs)))
	return j
}

// complete returns a dispatched job's in-flight slot to its tenant.
func (sc *scheduler) complete(name string) {
	if tq, ok := sc.tenants[name]; ok {
		tq.inFlight--
		tq.completed++
	}
}

// TenantStats is one tenant's row in the /v1/stats scheduler block.
type TenantStats struct {
	Name        string `json:"name"`
	Weight      int    `json:"weight"`
	QueueDepth  int    `json:"queue_depth"`
	QueueShare  int    `json:"queue_share"`
	InFlight    int    `json:"in_flight"`
	MaxInFlight int    `json:"max_in_flight,omitempty"`
	Admitted    int64  `json:"admitted"`
	Dispatched  int64  `json:"dispatched"`
	Completed   int64  `json:"completed"`
	Shed        int64  `json:"shed"`
	// SLOs carries this tenant's burn-rate snapshots: synthesize, then
	// first_mapping.
	SLOs []obsv.SLOSnapshot `json:"slos,omitempty"`
}

// SchedulerStats is the fairness counter block on /v1/stats.
type SchedulerStats struct {
	DeficitRounds int64         `json:"deficit_rounds"`
	Dispatched    int64         `json:"dispatched_total"`
	Tenants       []TenantStats `json:"tenants"`
}

func (sc *scheduler) stats() SchedulerStats {
	st := SchedulerStats{
		DeficitRounds: sc.rounds,
		Dispatched:    sc.dispatchedTV,
	}
	for _, tq := range sc.order {
		maxIF := tq.cfg.MaxInFlight
		if maxIF >= 1<<30 {
			maxIF = 0 // unlimited reads cleaner as absent
		}
		st.Tenants = append(st.Tenants, TenantStats{
			Name: tq.name, Weight: tq.cfg.Weight,
			QueueDepth: len(tq.jobs), QueueShare: tq.cfg.QueueShare,
			InFlight: tq.inFlight, MaxInFlight: maxIF,
			Admitted: tq.admitted, Dispatched: tq.dispatched,
			Completed: tq.completed, Shed: tq.shed,
			SLOs: []obsv.SLOSnapshot{tq.sloSynth.Snapshot(), tq.sloFirstMap.Snapshot()},
		})
	}
	return st
}

// tenantKey carries the resolved tenant through the context, like the
// peer-fill hint.
type tenantKey struct{}

// ContextWithTenant attaches the tenant a request should be accounted
// to. Empty leaves the context unchanged (the default tenant applies).
func ContextWithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// tenantFromContext reads the tenant, defaulting when absent.
func tenantFromContext(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	if t == "" {
		return DefaultTenant
	}
	return sanitizeTenant(t)
}

// sanitizeTenant normalizes a tenant name. The X-Janus-Tenant header is
// client input and tenant names become metric names and log fields, so
// only short lowercase [a-z0-9_-] survives; anything else folds to the
// default tenant rather than erroring — tenancy is an accounting
// concern, not a correctness one.
func sanitizeTenant(t string) string {
	if t == "" || len(t) > 32 {
		return DefaultTenant
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return DefaultTenant
		}
	}
	return t
}
