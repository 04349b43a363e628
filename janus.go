// Package janus is a Go implementation of JANUS, the satisfiability-based
// approximate algorithm for logic synthesis on switching lattices of
// four-terminal switches (Aksoy & Altun, DATE 2019).
//
// A switching lattice is an m×n grid of four-terminal switches; the
// lattice computes 1 when its on switches form a 4-connected path between
// the top and bottom plates. Synthesize maps a Boolean function onto a
// lattice with (approximately) the minimum number of switches by encoding
// the lattice mapping decision problem as SAT and running a dichotomic
// search over lattice sizes between improved lower and upper bounds;
// SynthesizeMulti packs several functions onto a single lattice.
//
// The package is a thin facade: the algorithm and its substrates (cube
// algebra, two-level minimizer, CDCL SAT solver, path enumeration, bound
// constructions, baselines) live in internal packages and are re-exported
// here as aliases so applications deal with a single import.
//
//	f := janus.NewCover(4,
//	    janus.Product([]int{0, 1, 2, 3}, nil),  // abcd
//	    janus.Product(nil, []int{0, 1, 2, 3}))  // a'b'c'd'
//	res, err := janus.Synthesize(f, janus.Options{})
//	// res.Grid == 4x2, res.Assignment prints the switch grid.
package janus

import (
	"context"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/lattice-tools/janus/internal/baselines"
	"github.com/lattice-tools/janus/internal/bounds"
	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/encode"
	"github.com/lattice-tools/janus/internal/front"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/pla"
	"github.com/lattice-tools/janus/internal/sat"
	"github.com/lattice-tools/janus/internal/service"
)

// Core value types.
type (
	// Cube is a product (conjunction) of literals.
	Cube = cube.Cube
	// Cover is a sum of products; the input and output form for targets.
	Cover = cube.Cover
	// Grid is an m×n lattice shape.
	Grid = lattice.Grid
	// Assignment is a fully specified lattice implementation.
	Assignment = lattice.Assignment
	// Entry is the control assignment of one switch.
	Entry = lattice.Entry
	// Options configures Synthesize.
	Options = core.Options
	// Result is the outcome of Synthesize.
	Result = core.Result
	// MultiResult is the outcome of SynthesizeMulti.
	MultiResult = core.MultiResult
	// MultiLattice is a single lattice realizing several functions.
	MultiLattice = core.MultiLattice
	// EncodeOptions tunes the lattice-mapping SAT formulation.
	EncodeOptions = encode.Options
	// SATLimits bounds individual SAT calls.
	SATLimits = sat.Limits
	// PLA is a parsed espresso-format file.
	PLA = pla.File
	// BaselineResult is the outcome of the comparison algorithms.
	BaselineResult = baselines.Result
	// BaselineOptions configures the comparison algorithms.
	BaselineOptions = baselines.Options
	// UpperBound is a named, verified bound construction.
	UpperBound = bounds.Bound
	// MemoStats is a snapshot of the process-wide memoization caches
	// (path enumerations, truth tables, lattice-function covers).
	MemoStats = memo.Stats
	// Tracer writes a synthesis' hierarchical span trace as JSONL; set
	// Options.Tracer to enable (nil keeps tracing free).
	Tracer = obsv.Tracer
	// Span is one node of a trace; Options.TraceParent nests a synthesis
	// under an existing span.
	Span = obsv.Span
	// MetricsSnapshot is a point-in-time copy of the process-wide metrics
	// registry (janus_* counters, gauges, and histograms).
	MetricsSnapshot = obsv.Snapshot
	// LabeledMetricsSnapshot pairs a MetricsSnapshot with labels stamped
	// on every series in a fleet Prometheus render (WriteFleetMetricsProm).
	LabeledMetricsSnapshot = obsv.LabeledSnapshot
	// TraceContext is the cross-process trace coordinate carried by the
	// X-Janus-Trace header: the fleet trace id plus the parent span in the
	// sending process. Client forwards it automatically when present on
	// the request context.
	TraceContext = obsv.TraceContext
	// Server is the janusd synthesis service: a job queue with request
	// coalescing and a persistent result cache in front of Synthesize.
	Server = service.Server
	// ServiceConfig sizes a Server (workers, queue depth, cache tiers).
	ServiceConfig = service.Config
	// ServiceRequest is the POST /v1/synthesize payload.
	ServiceRequest = service.Request
	// ServiceBatchRequest is the POST /v1/synthesize/batch payload: a
	// multi-function workload synthesized onto one lattice via JANUS-MF.
	ServiceBatchRequest = service.BatchRequest
	// ServiceBatchFunction is one function of a batch payload.
	ServiceBatchFunction = service.BatchFunction
	// ServiceBatchResult is the wire form of a finished batch (packed
	// lattice shape plus per-output parts).
	ServiceBatchResult = service.BatchResultJSON
	// ServiceResponse is the wire form of a job's state.
	ServiceResponse = service.Response
	// TenantConfig sizes one tenant's share of a Server (DRR weight,
	// queue share, in-flight cap).
	TenantConfig = service.TenantConfig
	// TenantStats is one tenant's row in the /v1/stats scheduler block.
	TenantStats = service.TenantStats
	// SchedulerStats is the fairness counter block on /v1/stats.
	SchedulerStats = service.SchedulerStats
	// ServiceStats is the /healthz body.
	ServiceStats = service.Stats
	// Client talks to a running janusd.
	Client = service.Client
	// APIError is a non-2xx janusd answer, carrying the HTTP code.
	APIError = service.APIError
	// FlightDump is the /debug/flightrecorder body: recent request
	// summaries plus the ids of pinned traces.
	FlightDump = service.FlightDump
	// FlightEntry is one request summary in the flight recorder.
	FlightEntry = service.FlightEntry
	// SLOSnapshot is one endpoint's latency-objective state (good/total
	// counters and multi-window burn rates), as served on /v1/stats.
	SLOSnapshot = obsv.SLOSnapshot
	// ProgressEvent is one anytime progress notification (phase brackets,
	// verified bound moves, incumbent improvements, dichotomic steps).
	ProgressEvent = obsv.ProgressEvent
	// ProgressSink receives progress events; set Options.Progress (nil
	// keeps progress free).
	ProgressSink = obsv.ProgressSink
	// ProgressWriter is a ProgressSink printing one line per event — the
	// -progress flag of cmd/janus and cmd/tableii.
	ProgressWriter = obsv.ProgressWriter
	// EventsPage is one page of a job's progress stream, as returned by
	// Client.JobEvents (the ?wait= long-poll form of /v1/jobs/{id}/events).
	EventsPage = service.EventsPage
	// ProgressEventJSON is the wire form of one progress event.
	ProgressEventJSON = service.ProgressEventJSON
	// ProgressSnapshot is the rolled-up progress inlined in job polls.
	ProgressSnapshot = service.ProgressJSON
	// ClientOption configures a Client at construction (timeout,
	// transport).
	ClientOption = service.ClientOption
	// CacheEntry is the peer cache-fill wire form served by janusd's
	// GET /v1/cache/{fnKey}.
	CacheEntry = service.CacheEntry
	// Front is the janusfront sharding tier: a rendezvous-hash router
	// over N janusd backends with health-aware membership, failover, and
	// peer cache fill on reshard.
	Front = front.Front
	// FrontConfig sizes a Front (backends, health poll, retry policy).
	FrontConfig = front.Config
	// FrontStats is the front's merged /v1/stats body.
	FrontStats = front.Stats
)

// NewProgressWriter returns a line-per-event progress sink writing to w.
func NewProgressWriter(w io.Writer) *ProgressWriter { return obsv.NewProgressWriter(w) }

// NewServer builds the synthesis service and starts its worker pool;
// serve its Handler and stop it with Shutdown.
func NewServer(cfg ServiceConfig) (*Server, error) { return service.NewServer(cfg) }

// NewClient returns a janusd API client for the daemon at baseURL. The
// zero-option client shares one keep-alive transport per process; see
// WithClientTimeout for bounded control-plane calls.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	return service.NewClient(baseURL, opts...)
}

// WithClientTimeout bounds every request of a NewClient while sharing
// the process transport. For health polls and cache lookups — not for
// Synthesize, whose waits are bounded server-side.
func WithClientTimeout(d time.Duration) ClientOption { return service.WithTimeout(d) }

// WithClientHTTP substitutes the client's whole *http.Client.
func WithClientHTTP(hc *http.Client) ClientOption { return service.WithHTTPClient(hc) }

// WithClientTenant stamps every request from the client with a tenant
// name (the X-Janus-Tenant header), mapping its jobs onto that tenant's
// scheduling share on the daemon.
func WithClientTenant(tenant string) ClientOption { return service.WithTenant(tenant) }

// NewFront builds the sharding front tier and starts its health poller;
// serve its Handler and stop it with Close.
func NewFront(cfg FrontConfig) (*Front, error) { return front.New(cfg) }

// NewTracer starts a JSONL span tracer writing to w. The caller owns w;
// check Err after the run for deferred write failures.
func NewTracer(w io.Writer) *Tracer { return obsv.NewTracer(w) }

// Metrics snapshots the process-wide registry. All synthesis layers
// publish here (janus_core_*, janus_encode_*, janus_sat_*, janus_memo_*);
// the same data is exported through expvar as "janus_metrics".
func Metrics() MetricsSnapshot { return obsv.Default.Snapshot() }

// MetricsPromContentType is the Content-Type of the Prometheus text
// exposition format served by WriteMetricsProm (and by janusd's and
// janusfront's GET /metrics/prom).
const MetricsPromContentType = obsv.PromContentType

// WriteMetricsProm renders the process-wide registry in the Prometheus
// text exposition format (version 0.0.4) — the embedder's form of the
// daemons' GET /metrics/prom.
func WriteMetricsProm(w io.Writer) error { return obsv.WritePrometheus(w, nil) }

// WriteFleetMetricsProm merges several labeled snapshots into ONE
// Prometheus exposition (a single # TYPE line per family even when
// every source exports the same metric) — how the front renders its own
// registry next to each backend's, tagged backend="id".
func WriteFleetMetricsProm(w io.Writer, snaps []LabeledMetricsSnapshot) error {
	return obsv.WriteFleetProm(w, snaps)
}

// TraceHeader is the cross-process trace propagation header,
// "X-Janus-Trace": "<trace_id>-<parent_span_id>".
const TraceHeader = obsv.TraceHeader

// ContextWithTraceContext attaches a trace context for outbound calls:
// Client stamps it onto every request as TraceHeader, and a janusd
// receiving it roots the job's trace under the remote span.
func ContextWithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return obsv.ContextWithTraceContext(ctx, tc)
}

// ServeDebug starts a background HTTP listener exposing /metrics,
// /debug/vars, and /debug/pprof for live inspection of a long synthesis.
// It returns the bound listener; close it to stop serving.
func ServeDebug(addr string) (net.Listener, error) {
	return obsv.ServeDebug(addr, obsv.Default)
}

// MemoSnapshot returns the current hit/miss counters of the shared
// memoization caches. Repeated solves of similar grids should show the
// hit counts growing; Sub on two snapshots isolates one run's traffic.
func MemoSnapshot() MemoStats { return memo.Snapshot() }

// ResetMemo clears the shared caches and their counters. Useful for
// isolating measurements; concurrent synthesis remains safe during a
// reset, it only loses cached work.
func ResetMemo() { memo.Reset() }

// Switch entry kinds for building assignments by hand.
const (
	Const0 = lattice.Const0
	Const1 = lattice.Const1
	PosVar = lattice.PosVar
	NegVar = lattice.NegVar
)

// Product builds a cube from positive and negated variable index lists.
func Product(pos, neg []int) Cube { return cube.FromLiterals(pos, neg) }

// NewCover builds a sum-of-products function over n input variables.
func NewCover(n int, products ...Cube) Cover { return cube.NewCover(n, products...) }

// Minimize returns an irredundant prime cover of f with a minimized
// product count (the role espresso plays in the paper).
func Minimize(f Cover) Cover { return minimize.Auto(f) }

// Dual returns the dual function f^D(x) = ¬f(¬x) as a cover.
func Dual(f Cover) Cover { return f.Dual() }

// Synthesize runs JANUS on a single-output function and returns a
// verified lattice implementation of (approximately) minimum size.
func Synthesize(f Cover, opt Options) (Result, error) { return core.Synthesize(f, opt) }

// SynthesizeMulti runs JANUS-MF, realizing every function on one lattice;
// with reduce=false it stops after the straight-forward packing.
func SynthesizeMulti(fns []Cover, opt Options, reduce bool) (*MultiResult, error) {
	return core.SynthesizeMulti(fns, opt, reduce)
}

// LMResult is the outcome of a single lattice mapping decision.
type LMResult = encode.Result

// MapOnto decides the paper's core subproblem directly: can f be realized
// on the given lattice? It solves the paper's monolithic formulation. The
// function is Auto-minimized first; a Sat result carries a verified
// assignment.
func MapOnto(f Cover, g Grid, opt EncodeOptions) (LMResult, error) {
	isop, dual := minimize.AutoDual(f)
	return encode.SolveLM(isop, dual, g, opt)
}

// Bounds returns the verified upper-bound constructions for f, sorted by
// size; improved selects whether IPS and IDPS are included.
func Bounds(f Cover, improved bool) []UpperBound {
	isop, dual := minimize.AutoDual(f)
	return bounds.All(isop, dual, improved)
}

// LowerBound returns the structural lower bound on the lattice size of f,
// capped at max.
func LowerBound(f Cover, max int) int {
	isop, dual := minimize.AutoDual(f)
	return bounds.LowerBound(isop, dual, max)
}

// LatticeFunction returns the lattice function of an m×n grid as a cover
// over the switch indexes (row-major), and its product count is the Table
// I "top" entry.
func LatticeFunction(g Grid) Cover { return g.Function() }

// LatticeDual returns the dual lattice function (8-connected left–right
// paths), the Table I "bottom" entry.
func LatticeDual(g Grid) Cover { return g.DualFunction() }

// ParsePLA reads an espresso-format PLA file.
func ParsePLA(r io.Reader) (*PLA, error) { return pla.Parse(r) }

// ParsePLAString reads a PLA held in a string.
func ParsePLAString(s string) (*PLA, error) { return pla.ParseString(s) }

// WritePLA serializes a PLA file.
func WritePLA(w io.Writer, f *PLA) error { return pla.Write(w, f) }

// ExactBaseline runs the exact method of Gange et al. (TODAES 2014).
func ExactBaseline(f Cover, opt BaselineOptions) (BaselineResult, error) {
	return baselines.ExactGange(f, opt)
}

// ApproxBaseline runs the approximate method of Gange et al.
func ApproxBaseline(f Cover, opt BaselineOptions) (BaselineResult, error) {
	return baselines.ApproxGange(f, opt)
}

// HeuristicBaseline runs the promising-candidate heuristic of Morgül &
// Altun.
func HeuristicBaseline(f Cover, opt BaselineOptions) (BaselineResult, error) {
	return baselines.Heuristic(f, opt)
}

// DecomposeBaseline runs the Shannon-decomposition synthesis modeled on
// Bernasconi et al.'s p-circuit method.
func DecomposeBaseline(f Cover, opt BaselineOptions) (BaselineResult, error) {
	return baselines.Decompose(f, opt)
}
