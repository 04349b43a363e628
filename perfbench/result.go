package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
)

// metricSpec names one reported metric and its unit; the lists below must
// match BENCHMARK.json (perfbench_test.go checks that they do).
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, with tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p75_ms", "ms"},
	{"switches_mean", "switches"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports. Times and counts are
// per op unless the unit is "count" (a run total) or "frac". A layer the
// workload does not reach reads 0.
var perLayer = []metricSpec{
	{"minimize.ms", "ms"},
	{"bounds.ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.ds_ms", "ms"},
	{"core.lm_solves", "count/op"},
	{"core.unstable_instances", "count"},
	{"sat.ms", "ms"},
	{"sat.conflicts", "count/op"},
	{"sat.propagations", "count/op"},
	{"sat.useful_frac", "frac"},
	{"encode.build_ms", "ms"},
	{"encode.clauses", "count/op"},
	{"encode.cegar_iters", "count/op"},
	{"lattice.verify_ms", "ms"},
	{"memo.hit_frac", "frac"},
	{"runtime.alloc_mb", "MB/op"},
	{"runtime.gc_cycles", "count/op"},
	{"obsv.tracer_overhead_frac", "frac"},
	{"pla.parse_ms", "ms"},
	{"service.canon_ms", "ms"},
	{"service.handler_ms", "ms"},
	{"service.http_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.solve_ms", "ms"},
	{"service.hit_frac", "frac"},
	{"service.coalesced", "count"},
	{"service.shed", "count"},
	{"front.proxy_ms", "ms"},
	{"front.hop_ms", "ms"},
	{"front.failovers", "count"},
	{"front.proxy_errors", "count"},
	{"bench.overhead_frac", "frac"},
}

// runResult is what one workload run measured and checked.
type runResult struct {
	mu        sync.Mutex
	setup     []float64 // seconds, one per set-up repetition
	setupAdd  float64   // seconds of set-up done once (filling a warm cache)
	lat       []float64 // ms per timed op; a failed op is +Inf
	latSeg    []int     // the timed loop's segment each op started in
	sizes     []int     // switches of every verified timed answer
	attempted int
	failed    int
	wrong     int // answers that did not realize the requested function
	ok        int // verified timed ops
	failures  []string
	elapsed   time.Duration
	passes    int
	steal     float64
	cpuSecs   map[string]time.Duration
	cpuOrder  []string
	rssMB     float64
	setupClk  *segClock // host marks around each set-up repetition (segment i holds setup[i])
	fillClk   *segClock // host marks over the one-off set-up, when there is one
	loopClk   *segClock // host marks over the timed loop
	layers    map[string]float64
	notes     []string
}

func newRunResult(setup []float64) *runResult {
	return &runResult{setup: setup, cpuSecs: map[string]time.Duration{}, layers: map[string]float64{}}
}

// wrongAnswer marks an answer that came back but does not realize the
// requested function; it makes the run incorrect, not just failed.
type wrongAnswer string

func (w wrongAnswer) Error() string { return string(w) }

// record books one timed op: its latency and answer size, or its failure.
func (r *runResult) record(id string, seg int, lat time.Duration, size int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.latSeg = append(r.latSeg, seg)
	if err != nil {
		r.failLocked(id, err)
		r.lat = append(r.lat, math.Inf(1))
		return
	}
	r.ok++
	r.lat = append(r.lat, float64(lat)/1e6)
	r.sizes = append(r.sizes, size)
}

// count books an op that was checked but is not part of the timing.
func (r *runResult) count(id string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(id, err)
	}
}

func (r *runResult) failLocked(id string, err error) {
	r.failed++
	var w wrongAnswer
	if errors.As(err, &w) {
		r.wrong++
	}
	r.failures = append(r.failures, fmt.Sprintf("FAIL %s: %v", id, err))
}

// endLoop books the timed loop's wall time, steal share, the benchmark's
// CPU time over it, and the passes it ran.
func (r *runResult) endLoop(l loopClock, passes int) {
	r.elapsed = time.Since(l.start)
	r.steal = stealShare(l.host, readCPUTimes())
	r.cpu("perfbench", selfCPU()-l.cpu)
	r.passes = passes
}

func (r *runResult) cpu(name string, d time.Duration) {
	if _, ok := r.cpuSecs[name]; !ok {
		r.cpuOrder = append(r.cpuOrder, name)
	}
	r.cpuSecs[name] += d
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latencies returns the timed ops' latencies in ms, host-scaled or raw.
func (r *runResult) latencies(scaled bool) []float64 {
	lat := make([]float64, len(r.lat))
	for i, v := range r.lat {
		lat[i] = v
		if scaled {
			lat[i] *= r.loopClk.scale(r.latSeg[i])
		}
	}
	return lat
}

// endToEndMetrics derives the --trace 0 metrics. With scaled set, every
// time is host-scaled (see ref.go); otherwise times are raw.
func (r *runResult) endToEndMetrics(scaled bool) map[string]float64 {
	clk := func(c *segClock) *segClock {
		if scaled {
			return c
		}
		return nil
	}
	lat := r.latencies(scaled)
	setup := make([]float64, len(r.setup))
	for i, v := range r.setup {
		setup[i] = v * clk(r.setupClk).scale(i)
	}
	once, elapsed := r.setupAdd, r.elapsed
	if scaled && r.fillClk != nil {
		once = r.fillClk.elapsed().Seconds()
	}
	if scaled {
		elapsed = r.loopClk.elapsed()
	}
	sum := 0
	for _, s := range r.sizes {
		sum += s
	}
	return map[string]float64{
		"setup_s":          median(setup) + once,
		"throughput_per_s": ratio(float64(r.ok), elapsed.Seconds()),
		"lat_p50_ms":       percentile(lat, 500),
		"lat_p75_ms":       percentile(lat, 750),
		"switches_mean":    ratio(float64(sum), float64(len(r.sizes))),
		"peak_rss_mb":      r.rssMB,
	}
}

// scaledLayers returns the per-layer metrics with every time (unit ms)
// host-scaled by the timed loop as a whole: its stolen share and median
// mark. Counts and shares are returned as they are.
func (r *runResult) scaledLayers() map[string]float64 {
	_, mid, _ := r.loopClk.refRange()
	l := make(map[string]float64, len(r.layers))
	for _, s := range perLayer {
		l[s.name] = r.layers[s.name]
		if s.unit == "ms" && mid > 0 {
			l[s.name] *= (1 - r.loopClk.stolenMean()) * refNominalMS / mid
		}
	}
	return l
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the human-readable record of a run, then the result line
// as the last line of standard output. It fails when a metric the run
// must report could not be measured.
func (r *runResult) report(cfg config) error {
	if r.attempted == 0 {
		return fmt.Errorf("no op was attempted")
	}
	specs, values := endToEnd, r.endToEndMetrics(true)
	if cfg.trace {
		specs, values = perLayer, r.scaledLayers()
	}
	n := len(r.lat)
	fmt.Printf("workload=%s seed=%d trace=%v seconds=%g passes=%d timed_ops=%d attempted=%d failed=%d wrong=%d elapsed_s=%.3f\n",
		cfg.workload, cfg.seed, cfg.trace, cfg.duration.Seconds(), r.passes, n, r.attempted, r.failed, r.wrong, r.elapsed.Seconds())
	for _, f := range r.failures {
		fmt.Println(f)
	}
	for _, s := range r.notes {
		fmt.Println("note:", s)
	}
	fmt.Printf("setup: samples_s=%v once_s=%.4f\n", r.setup, r.setupAdd)
	fmt.Printf("failed_frac %.6f frac\n", float64(r.failed)/float64(r.attempted))
	lat, rawLat := r.latencies(true), r.latencies(false)
	if pm := tailPM(n); pm > 0 {
		fmt.Printf("tail: p%g of %d samples = %.4f ms (raw %.4f)\n", float64(pm)/10, n, percentile(lat, pm), percentile(rawLat, pm))
	}
	for _, pm := range []int{900, 990} {
		if beyond(n, pm) >= 10 {
			fmt.Printf("lat_p%d_ms %.4f ms (raw %.4f)\n", pm/10, percentile(lat, pm), percentile(rawLat, pm))
		}
	}
	prefix := "e2e"
	if cfg.trace {
		// Printed to set against the untraced runs of the workload; the
		// result line of a traced run carries the layers.
		prefix = "traced-run e2e"
	}
	e2e, raw := r.endToEndMetrics(true), r.endToEndMetrics(false)
	for _, s := range endToEnd {
		fmt.Printf("%s %s %.6g %s (raw %.6g)\n", prefix, s.name, e2e[s.name], s.unit, raw[s.name])
	}
	fmt.Println(hostLine(r.steal, r.loopClk, r.cpuSecs, r.cpuOrder))
	out := resultJSON{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, s := range specs {
		v := values[s.name] // a layer the workload does not reach reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v: too many ops failed (a failed op counts as +Inf)", s.name, v)
		}
		if cfg.trace {
			fmt.Printf("layer %s %.6g %s\n", s.name, v, s.unit)
		}
		out.Metrics[s.name] = metricJSON{Value: v, Unit: s.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// counterDelta sums the change of every exported counter, gauge and
// histogram over one or more (before, after) snapshot pairs, taken from
// janus.Metrics in-process or from GET /metrics on a daemon.
type counterDelta struct {
	val          map[string]int64
	hsum, hcount map[string]int64
}

func (d *counterDelta) add(before, after obsv.Snapshot) {
	if d.val == nil {
		d.val, d.hsum, d.hcount = map[string]int64{}, map[string]int64{}, map[string]int64{}
	}
	for n, v := range after.Counters {
		d.val[n] += v - before.Counters[n]
	}
	for n, v := range after.Gauges {
		d.val[n] += v - before.Gauges[n]
	}
	for n, h := range after.Histograms {
		d.hsum[n] += h.Sum - before.Histograms[n].Sum
		d.hcount[n] += h.Count - before.Histograms[n].Count
	}
}

func (d *counterDelta) get(name string) float64 { return float64(d.val[name]) }

// histMeanMS is the mean of a nanosecond histogram's new observations, in ms.
func (d *counterDelta) histMeanMS(name string) float64 {
	return ratio(float64(d.hsum[name])/1e6, float64(d.hcount[name]))
}

// coreLayers fills the synthesis-pipeline layers from the deltas, per op.
func (d *counterDelta) coreLayers(l map[string]float64, ops float64) {
	l["core.search_ms"] = ratio(d.get("janus_core_phase_search_ns_total")/1e6, ops)
	l["core.ds_ms"] = ratio(d.get("janus_core_phase_ds_ns_total")/1e6, ops)
	l["core.lm_solves"] = ratio(d.get("janus_core_lm_solved_total"), ops)
	l["sat.ms"] = ratio(d.get("janus_sat_solve_ns_total")/1e6, ops)
	l["sat.conflicts"] = ratio(d.get("janus_sat_conflicts_total"), ops)
	l["sat.propagations"] = ratio(d.get("janus_sat_propagations_total"), ops)
	l["sat.useful_frac"] = ratio(d.get("janus_encode_candidates_sat_total")+d.get("janus_encode_candidates_unsat_total"),
		d.get("janus_encode_candidates_total"))
	l["encode.clauses"] = ratio(d.get("janus_encode_clauses_added_total"), ops)
	l["encode.cegar_iters"] = ratio(d.get("janus_encode_cegar_iters_total"), ops)
}

// memoHitFrac reads the memo hit share from the janus_memo_* gauges.
func (d *counterDelta) memoHitFrac() float64 {
	var hits, misses float64
	for _, c := range []string{"paths", "tables", "covers"} {
		hits += d.get("janus_memo_" + c + "_hits")
		misses += d.get("janus_memo_" + c + "_misses")
	}
	return ratio(hits, hits+misses)
}

// spans accumulates the benchmark's own spans around layer calls, by
// metric name; "bench" holds its bookkeeping (snapshots) time. One
// goroutine records them: the paper loop, or the service workloads after
// their loop.
type spans struct {
	d map[string]time.Duration
}

func (s *spans) add(name string, d time.Duration) {
	if s.d == nil {
		s.d = map[string]time.Duration{}
	}
	s.d[name] += d
}

// layers stores every span's mean per op in ms.
func (s *spans) layers(l map[string]float64, ops float64) {
	for name, d := range s.d {
		if name != "bench" {
			l[name] = ratio(float64(d)/1e6, ops)
		}
	}
}

func (s *spans) total() time.Duration {
	var t time.Duration
	for _, d := range s.d {
		t += d
	}
	return t
}

func keys(m map[string]bool) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}
