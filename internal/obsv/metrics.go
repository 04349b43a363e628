package obsv

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone atomic counter. A nil Counter discards updates.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (negative deltas are ignored so
// snapshots stay monotone).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil Gauge discards updates.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add shifts the gauge by d (either sign).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of Histogram: bucket i counts
// observations v with 2^(i-1) < v ≤ 2^i (bucket 0 is v ≤ 1), and the last
// bucket is the +Inf overflow.
const histBuckets = 20

// Histogram accumulates an exponential-bucket distribution of int64
// observations, lock-free. A nil Histogram discards observations.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64
	bucket [histBuckets]atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	i := 0
	for b := int64(1); i < histBuckets-1 && v > b; i++ {
		b <<= 1
	}
	return i
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n equal observations at once (n ≤ 0 is a no-op),
// letting callers fold pre-bucketed distributions in cheaply.
func (h *Histogram) ObserveN(v, n int64) {
	if h == nil || n <= 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(v * n)
	h.bucket[bucketOf(v)].Add(n)
}

// HistogramSnapshot is the exported state of a Histogram. Buckets[i]
// counts observations ≤ 2^i (the last bucket catches everything above).
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets"`
}

// Registry is a name-keyed collection of metrics. Lookup by name takes a
// read lock; the returned metric handles update lock-free, so hot paths
// should resolve their metrics once (package-level vars) and hold them.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
	// variants counts distinct labeled children per base histogram name,
	// enforcing the HistogramWith cardinality bound.
	variants map[string]int
}

// Default is the process-wide registry the pipeline's packages register
// into, under the naming scheme janus_<pkg>_<name>.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
		variants: make(map[string]int),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// maxLabelVariants bounds the distinct label sets one base metric name
// may grow via HistogramWith: two endpoints × the scheduler's 64
// tracked tenants. Past it, new label sets fold into values of "other"
// so a hostile or misconfigured label source cannot grow the registry
// (and every scrape) without bound.
const maxLabelVariants = 128

// LabeledName renders a metric name with prometheus-style labels
// attached: name{k1="v1",k2="v2"}. kv alternates keys and values; label
// values are escaped per the text exposition format, keys have invalid
// runes folded to '_'. The labeled string is the registry key — the
// JSON snapshot shows it verbatim, and WritePrometheus splits it back
// apart to splice in extra labels (le, backend).
func LabeledName(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeLabelKey(kv[i]))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// HistogramWith returns the histogram for name with the given label
// pairs (alternating key, value), creating it on first use. Distinct
// label sets per base name are capped at maxLabelVariants; once full,
// new sets fold into a single overflow child whose values are all
// "other", so observations are never dropped — only their label detail.
func (r *Registry) HistogramWith(name string, kv ...string) *Histogram {
	labeled := LabeledName(name, kv...)
	r.mu.RLock()
	h := r.hists[labeled]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[labeled]; h != nil {
		return h
	}
	if r.variants[name] >= maxLabelVariants {
		folded := make([]string, len(kv))
		for i := range kv {
			if i%2 == 0 {
				folded[i] = kv[i]
			} else {
				folded[i] = "other"
			}
		}
		labeled = LabeledName(name, folded...)
		if h = r.hists[labeled]; h != nil {
			return h
		}
	}
	h = &Histogram{}
	r.hists[labeled] = h
	r.variants[name]++
	return h
}

// RegisterFunc registers a read-only gauge backed by fn; snapshots call
// it. Registering a name twice keeps the latest function.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot is a point-in-time copy of a registry's metrics, JSON-ready
// (this is what /metrics serves). Function-backed gauges land
// in Gauges next to the explicit ones.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Get reads one metric from the snapshot by name, counters first.
func (s Snapshot) Get(name string) int64 {
	if v, ok := s.Counters[name]; ok {
		return v
	}
	return s.Gauges[name]
}

// Snapshot captures the current value of every registered metric.
// Counter values are monotone across successive snapshots.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.funcs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, fn := range r.funcs {
		s.Gauges[n] = fn()
	}
	for n, h := range r.hists {
		hs := HistogramSnapshot{
			Count:   h.count.Load(),
			Sum:     h.sum.Load(),
			Buckets: make([]int64, histBuckets),
		}
		for i := range hs.Buckets {
			hs.Buckets[i] = h.bucket[i].Load()
		}
		s.Histograms[n] = hs
	}
	return s
}
