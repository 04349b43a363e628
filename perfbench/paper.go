package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/lattice-tools/janus"
	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/bounds"
	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/encode"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/sat"
)

// paperSubset is the Table II part of the paper workload. The rule: every
// instance whose solve at maxConflicts conflicts per LM call finished in
// under 2 s in the reference sweep recorded in README.md, 23 of the 48.
// It keeps the instances whose answers vary from solve to solve (b12_07,
// ex5_08, ex5_22, misex1_01, misex1_06, ...); core.unstable_instances
// counts them.
var paperSubset = []string{
	"b12_00", "b12_03", "b12_07", "c17_01", "clpl_00", "dc1_00", "dc1_02",
	"dc1_03", "ex5_06", "ex5_08", "ex5_10", "ex5_14", "ex5_19", "ex5_22",
	"ex5_25", "ex5_28", "misex1_00", "misex1_01", "misex1_04", "misex1_06",
	"misex1_07", "mp2d_06", "newtag_00",
}

// paperMulti is the Table III instance the paper workload runs through
// JANUS-MF (core.SynthesizeMulti with row reduction).
const paperMulti = "bw"

// minOps is the fewest ops a run completes, so that its p75 has ten
// samples beyond it (see tailPM).
const minOps = 40

// paperMinPasses is the fewest passes a paper run makes (96 ops). With two
// passes (48 ops) the p75 fell between a handful of instances whose times
// vary from solve to solve, and its spread over ten runs reached 0.24.
const paperMinPasses = 4

// paperInput is one op of the paper workload: a single function, or the
// outputs of the multi-function instance.
type paperInput struct {
	name   string
	single cube.Cover
	multi  []cube.Cover
}

// loadPaper generates the paper workload's inputs.
func loadPaper() ([]paperInput, error) {
	var ins []paperInput
	for _, name := range paperSubset {
		inst := benchdata.Lookup(name)
		if inst == nil {
			return nil, fmt.Errorf("no Table II instance %q", name)
		}
		f, ok := inst.Function()
		if !ok {
			return nil, fmt.Errorf("instance %s: generator missed its profile", name)
		}
		ins = append(ins, paperInput{name: name, single: f})
	}
	for _, mi := range benchdata.TableIII() {
		if mi.Name == paperMulti {
			ins = append(ins, paperInput{name: mi.Name, multi: mi.Outputs()})
		}
	}
	if len(ins) != len(paperSubset)+1 {
		return nil, fmt.Errorf("no Table III instance %q", paperMulti)
	}
	return ins, nil
}

// genProbe is the child mode behind the paper set-up measurement: it times
// input generation in a fresh process (benchdata memoizes generation, so
// one process can time it only once) and prints the seconds.
func genProbe() int {
	t := time.Now()
	if _, err := loadPaper(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(time.Since(t).Seconds())
	return 0
}

// paperSetupReps is how many fresh processes time input generation; the
// run reports the median of these and its own generation time.
const paperSetupReps = 8

func paperSetup(cfg config) ([]paperInput, []float64, *segClock, error) {
	var setup []float64
	self, err := os.Executable()
	if err != nil {
		return nil, nil, nil, err
	}
	clk := newSegClock()
	for i := 0; i < paperSetupReps; i++ {
		if i > 0 {
			clk.cut()
		}
		c, err := spawn("gen-probe", self, []string{"--gen-probe"}, "")
		if err != nil {
			return nil, nil, nil, err
		}
		out, err := c.output()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("gen-probe: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(out), 64)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("gen-probe printed %q", out)
		}
		setup = append(setup, s)
	}
	clk.cut()
	t := time.Now()
	ins, err := loadPaper()
	if err != nil {
		return nil, nil, nil, err
	}
	setup = append(setup, time.Since(t).Seconds())
	clk.end()
	return ins, setup, clk, nil
}

func paperOptions() core.Options {
	var opt core.Options
	opt.Encode.Limits = sat.Limits{MaxConflicts: maxConflicts}
	return opt
}

// paperAnswer is one solve's outcome.
type paperAnswer struct {
	size      int
	conflicts int64
	single    *core.Result
	multi     *core.MultiResult
}

// solvePaper runs one op; tracer nil leaves the program's tracing off.
func solvePaper(in paperInput, tracer *janus.Tracer) (paperAnswer, error) {
	opt := paperOptions()
	opt.Tracer = tracer
	if in.multi != nil {
		mr, err := core.SynthesizeMulti(in.multi, opt, true)
		if err != nil {
			return paperAnswer{}, err
		}
		return paperAnswer{size: mr.Lattice.Size(), multi: mr}, nil
	}
	r, err := core.Synthesize(in.single, opt)
	if err != nil {
		return paperAnswer{}, err
	}
	return paperAnswer{size: r.Size, single: &r}, nil
}

// checkPaper re-verifies an answer against the requested covers with
// (*lattice.Assignment).Realizes; a multi-function lattice is cut into its
// column regions and each region checked against its own output.
func checkPaper(in paperInput, a paperAnswer) error {
	if a.single != nil {
		r := a.single
		switch {
		case r.Assignment == nil:
			return fmt.Errorf("no lattice")
		case r.Partial:
			return fmt.Errorf("partial answer (final lb %d < size %d)", r.FinalLB, r.Size)
		case !r.Assignment.Realizes(in.single):
			return wrongAnswer(fmt.Sprintf("%s lattice does not realize the function", r.Grid))
		}
		return nil
	}
	ml := a.multi.Lattice
	if len(ml.Regions) != len(in.multi) {
		return wrongAnswer(fmt.Sprintf("%d regions for %d outputs", len(ml.Regions), len(in.multi)))
	}
	for i, f := range in.multi {
		if !regionOf(ml, i).Realizes(f) {
			return wrongAnswer(fmt.Sprintf("region %d does not realize output %d", i, i))
		}
	}
	for _, p := range a.multi.Parts {
		if p.Partial {
			return fmt.Errorf("partial output answer")
		}
	}
	return nil
}

// regionOf cuts region i (full height) out of a multi-function lattice.
func regionOf(ml *core.MultiLattice, i int) *lattice.Assignment {
	r := ml.Regions[i]
	a := lattice.NewAssignment(lattice.Grid{M: ml.Rows(), N: r.Cols})
	for row := 0; row < ml.Rows(); row++ {
		for c := 0; c < r.Cols; c++ {
			a.Set(row, c, ml.Assignment.At(row, r.Col+c))
		}
	}
	return a
}

// runPaper is the paper workload: one caller solving the subset and bw in
// a seeded order per pass, whole passes until the time is up and at least
// paperMinPasses passes are done. Every op starts from a collected heap
// (runtime.GC before it, outside its latency but inside the loop's time,
// as testing.B does before a benchmark): otherwise one op's garbage is
// collected on the next op's clock and sets the heap goal the next op
// runs under, which made an instance with the same work take 10-15%
// longer or shorter by which instance ran before it.
func runPaper(cfg config) (*runResult, error) {
	ins, setup, setupClk, err := paperSetup(cfg)
	if err != nil {
		return nil, err
	}
	res := newRunResult(setup)
	res.setupClk = setupClk
	if cfg.trace {
		return res, paperTraced(cfg, ins, res)
	}
	loop := startLoop()
	c := newCycler(len(ins), paperMinPasses, cfg.seed, func() bool { return time.Since(loop.start) >= cfg.duration })
	var pt passTimer
	clk := newSegClock()
	m0 := janus.Metrics()
	for {
		pass, i, ok := c.next()
		if !ok {
			break
		}
		if clk.due() {
			clk.cut()
		}
		pt.at(pass)
		in := ins[i]
		runtime.GC()
		t := time.Now()
		a, err := solvePaper(in, nil)
		lat := time.Since(t)
		if err == nil {
			err = checkPaper(in, a)
		}
		res.record(fmt.Sprintf("pass%d/%s", pass, in.name), clk.cur, lat, a.size, err)
	}
	clk.end()
	m1 := janus.Metrics()
	res.loopClk = clk
	pt.at(-1)
	res.notef("pass seconds %s; pass peak RSS MB %v", &pt, pt.rss)
	res.notef("work: lm_solves=%d sat_conflicts=%d sat_propagations=%d", m1.Get("janus_core_lm_solved_total")-m0.Get("janus_core_lm_solved_total"),
		m1.Get("janus_sat_conflicts_total")-m0.Get("janus_sat_conflicts_total"), m1.Get("janus_sat_propagations_total")-m0.Get("janus_sat_propagations_total"))
	res.endLoop(loop, c.done())
	res.rssMB, err = pt.peakRSS()
	return res, err
}

// paperTraced is the paper workload's traced run. Each op solves its input
// twice, once with the program's tracer off and once with Options.Tracer
// writing to io.Discard, alternating which goes first; the untraced solve
// is bracketed by janus.Metrics (memo's counters included) and runtime.MemStats
// snapshots for the counter deltas. Then the benchmark's own spans time
// the layers' public calls on the op's inputs.
func paperTraced(cfg config, ins []paperInput, res *runResult) error {
	var (
		sp       spans
		plain    time.Duration // untraced solves
		traced   time.Duration // solves with the program's tracer on
		dm       counterDelta
		alloc    uint64
		gcs      uint32
		seen     = map[string]paperAnswer{}
		unstable = map[string]bool{}
	)
	note := func(name string, a paperAnswer) {
		if prev, ok := seen[name]; ok && (prev.size != a.size || prev.conflicts != a.conflicts) {
			unstable[name] = true
		}
		seen[name] = a
	}
	loop := startLoop()
	c := newCycler(len(ins), 1, cfg.seed, func() bool { return time.Since(loop.start) >= cfg.duration })
	var pt passTimer
	clk := newSegClock()
	for op := 0; ; op++ {
		pass, i, ok := c.next()
		if !ok {
			break
		}
		if clk.due() {
			clk.cut()
		}
		pt.at(pass)
		in := ins[i]
		id := fmt.Sprintf("pass%d/%s", pass, in.name)
		var a, b paperAnswer
		var errA, errB error
		solveA := func() {
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			t0 := time.Now()
			m0 := janus.Metrics()
			runtime.ReadMemStats(&ms0)
			sp.add("bench", time.Since(t0))
			t := time.Now()
			a, errA = solvePaper(in, nil)
			d := time.Since(t)
			t0 = time.Now()
			runtime.ReadMemStats(&ms1)
			m1 := janus.Metrics()
			sp.add("bench", time.Since(t0))
			plain += d
			dm.add(m0, m1)
			a.conflicts = m1.Get("janus_sat_conflicts_total") - m0.Get("janus_sat_conflicts_total")
			alloc += ms1.TotalAlloc - ms0.TotalAlloc
			gcs += ms1.NumGC - ms0.NumGC
			res.record(id, clk.cur, d, a.size, firstErr(errA, func() error { return checkPaper(in, a) }))
		}
		solveB := func() {
			runtime.GC()
			t := time.Now()
			before := janus.Metrics().Get("janus_sat_conflicts_total")
			b, errB = solvePaper(in, janus.NewTracer(io.Discard))
			traced += time.Since(t)
			b.conflicts = janus.Metrics().Get("janus_sat_conflicts_total") - before
			res.count(id+"/traced", firstErr(errB, func() error { return checkPaper(in, b) }))
		}
		if op%2 == 0 {
			solveA()
			solveB()
		} else {
			solveB()
			solveA()
		}
		if errA == nil {
			note(in.name, a)
			layerSpans(&sp, in, a)
		}
		if errB == nil {
			note(in.name, b)
		}
	}
	clk.end()
	res.loopClk = clk
	pt.at(-1)
	res.notef("pass seconds %s", &pt)
	res.endLoop(loop, c.done())
	var err error
	if res.rssMB, err = pt.peakRSS(); err != nil {
		return err
	}
	ops := float64(res.ok)
	l := res.layers
	dm.coreLayers(l, ops)
	l["core.unstable_instances"] = float64(len(unstable))
	l["memo.hit_frac"] = dm.memoHitFrac()
	l["runtime.alloc_mb"] = ratio(float64(alloc)/(1<<20), ops)
	l["runtime.gc_cycles"] = ratio(float64(gcs), ops)
	l["obsv.tracer_overhead_frac"] = ratio(float64(traced), float64(plain)) - 1
	sp.layers(l, ops)
	l["bench.overhead_frac"] = ratio(float64(sp.total()), float64(plain))
	res.notef("untraced solves %.3f s, traced solves %.3f s, unstable %v", plain.Seconds(), traced.Seconds(), keys(unstable))
	return nil
}

// layerSpans times the layers' public calls on one op's inputs: the
// minimizer and the bounds on every requested cover, clause construction
// on every grid the search probed, and verification of the answer.
func layerSpans(sp *spans, in paperInput, a paperAnswer) {
	covers, results := []cube.Cover{in.single}, []core.Result{}
	if a.single != nil {
		results = append(results, *a.single)
	} else {
		covers = in.multi
		results = a.multi.Parts
	}
	for _, f := range covers {
		coverSpans(sp, f)
	}
	opt := paperOptions()
	for _, r := range results {
		for _, g := range r.GridsProbed {
			var grid lattice.Grid
			if _, err := fmt.Sscanf(g, "%dx%d", &grid.M, &grid.N); err != nil {
				continue
			}
			t := time.Now()
			encode.BuildCNF(r.ISOP, r.DualISOP, grid, opt.Encode) //nolint:errcheck // timed only; the search already solved this grid
			sp.add("encode.build_ms", time.Since(t))
		}
	}
	t := time.Now()
	if a.single != nil {
		a.single.Assignment.Realizes(in.single)
	} else {
		for i, f := range in.multi {
			regionOf(a.multi.Lattice, i).Realizes(f)
		}
	}
	sp.add("lattice.verify_ms", time.Since(t))
}

// coverSpans times the minimizer and the bounds on one requested cover.
func coverSpans(sp *spans, f cube.Cover) {
	t := time.Now()
	isop, dual := minimize.AutoDual(f)
	sp.add("minimize.ms", time.Since(t))
	if isop.IsZero() || isop.IsOne() {
		return
	}
	t = time.Now()
	bounds.All(isop, dual, false)
	if ub := bounds.All(isop, dual, true); len(ub) > 0 {
		bounds.LowerBound(isop, dual, ub[0].Size())
	}
	sp.add("bounds.ms", time.Since(t))
}

func firstErr(err error, check func() error) error {
	if err != nil {
		return err
	}
	return check()
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passTimer starts every paper pass from an empty process-wide memo, as a
// fresh process sweeping the instances would, so that runs with different
// pass counts weigh cold and warm memo alike. It records each pass's wall
// time and peak RSS: VmHWM is restarted at every pass start, because the
// peak of a whole run grows with the pass count.
type passTimer struct {
	cur   int
	begun bool
	start time.Time
	secs  []float64
	rss   []float64 // MB, per pass
	err   error     // the first failure to restart or read VmHWM
}

// at is called before every op with its pass, and with -1 after the last.
func (p *passTimer) at(pass int) {
	if p.begun && pass == p.cur {
		return
	}
	if p.begun {
		p.secs = append(p.secs, time.Since(p.start).Seconds())
		mb, err := peakRSSMB("self")
		p.rss = append(p.rss, mb)
		p.fail(err)
	}
	if pass < 0 {
		return
	}
	memo.Reset()
	p.fail(resetPeakRSS())
	p.cur, p.begun, p.start = pass, true, time.Now()
}

func (p *passTimer) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// peakRSS is the mean over passes of the per-pass peak RSS, in MB. A
// pass's peak moves by a fifth with where collections fall in its heaviest
// solves; over ten runs of four passes the mean spread 0.10, the median
// 0.14.
func (p *passTimer) peakRSS() (float64, error) {
	if p.err != nil {
		return 0, fmt.Errorf("per-pass peak RSS: %w", p.err)
	}
	sum := 0.0
	for _, mb := range p.rss {
		sum += mb
	}
	return ratio(sum, float64(len(p.rss))), nil
}

func (p *passTimer) String() string {
	s := make([]string, len(p.secs))
	for i, v := range p.secs {
		s[i] = strconv.FormatFloat(v, 'f', 2, 64)
	}
	return strings.Join(s, ",")
}
