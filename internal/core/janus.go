// Package core implements JANUS, the paper's approximate lattice synthesis
// algorithm (Section III), plus JANUS-MF for realizing multiple functions
// on a single lattice (Section III-C).
//
// Synthesize minimizes the target into ISOP form, computes the structural
// lower bound and the best of the DP/PS/DPS/IPS/IDPS/DS upper bounds, and
// then explores lattice sizes with a dichotomic search, deciding one
// lattice mapping (LM) SAT problem per candidate lattice.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/lattice-tools/janus/internal/bounds"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/encode"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/sat"
)

// Options configures a synthesis run. The zero value follows the paper:
// improved bounds and the divide-and-synthesize method enabled, no SAT
// budget, candidate lattices capped at 64 switches (the path-mask limit).
type Options struct {
	// Encode tunes the LM SAT formulation (formulation choice, facts,
	// degree constraints, per-call SAT limits).
	Encode encode.Options
	// DisableImprovedBounds restricts the initial upper bound to the
	// DP/PS/DPS trio (the paper's "oub"; ablation).
	DisableImprovedBounds bool
	// DisableDS turns the divide-and-synthesize upper bound off.
	DisableDS bool
	// SkipMinimize treats the input cover as already being in ISOP form.
	SkipMinimize bool
	// MaxCells skips lattice candidates with more switches than this.
	// Zero means the implementation limit of 64.
	MaxCells int
	// DSMinProducts is the smallest product count for which DS runs
	// (default 4).
	DSMinProducts int
	// MFReduceBudget caps the LM solves SynthesizeMulti's shared
	// row-reduction phase may spend (0 = unlimited). The reduction is
	// opportunistic: when the budget runs out the best packing found so
	// far is kept. The service batch path sets this so a batch never
	// spends more solves shrinking the shared lattice than it saved by
	// skipping the per-output DS bounds.
	MFReduceBudget int
	// Workers solves the candidate lattices of each search midpoint
	// concurrently (the paper's machine ran 28 cores). Values below 2 keep
	// the search sequential. Among the satisfiable candidates of a
	// midpoint, the smallest area wins with ties broken by candidate
	// order. The result is deterministic only without a SAT budget or
	// with Workers below 2: concurrent candidates of one orientation
	// serialize on one pool engine in scheduling order and share its
	// learnt clauses, so under a conflict budget or timeout their
	// verdicts can vary from run to run.
	Workers int
	// Budget bounds the whole synthesis by wall clock (the paper's
	// analogue is the 6-hour CPU limit per instance). When it expires the
	// search stops and the best verified incumbent is returned. Zero
	// means unlimited.
	Budget time.Duration
	// Ctx cancels the synthesis cooperatively: when it is done, the
	// search stops between LM solves and the cancellation is threaded
	// into the SAT solver's interrupt channel so running solves abort
	// within a bounded number of search steps. Like an expired Budget,
	// cancellation is not an error — the best verified incumbent found so
	// far is returned. Nil means no cancellation (context.Background
	// semantics without the import on every call site).
	Ctx context.Context
	// Deadline is the absolute form of Budget; set automatically, and
	// inherited by DS/MF sub-syntheses so nested searches share the same
	// wall-clock budget.
	Deadline time.Time
	// Tracer, when non-nil, receives the synthesis' hierarchical span
	// trace (Synthesize → DichotomicStep → Candidate → CegarIter →
	// SatSolve) as JSONL; nil disables tracing at zero cost. When nil,
	// the tracer (and parent span) attached to Ctx via
	// obsv.ContextWithTracer/ContextWithSpan is used instead — the
	// carrier the service layer uses so per-job tracing crosses the
	// queue without widening this struct at every hop; a request id on
	// Ctx is stamped onto the root span as the request_id attribute.
	Tracer *obsv.Tracer
	// TraceParent nests this synthesis' root span under an existing
	// span. Set automatically for DS and MF sub-syntheses; leave nil for
	// top-level runs.
	TraceParent *obsv.Span
	// Progress, when non-nil, receives the synthesis' anytime progress
	// events (phase brackets, verified bound moves, incumbent
	// improvements, dichotomic steps — see obsv.ProgressEvent); nil keeps
	// progress free. When nil, the sink attached to Ctx via
	// obsv.ContextWithProgress is used instead — the carrier the service
	// layer uses so per-job progress crosses the queue like the tracer
	// does. DS and MF sub-syntheses inherit the sink and mark their
	// events Sub, since their bounds describe part covers.
	Progress obsv.ProgressSink
	// sub marks DS/MF sub-syntheses (set by subOptions): their progress
	// events carry the Sub flag and they do not feed the top-level
	// first-mapping histogram.
	sub bool
}

func (o Options) expired() bool {
	if o.Ctx != nil && o.Ctx.Err() != nil {
		return true
	}
	return !o.Deadline.IsZero() && time.Now().After(o.Deadline)
}

func (o Options) maxCells() int {
	if o.MaxCells <= 0 || o.MaxCells > 64 {
		return 64
	}
	return o.MaxCells
}

func (o Options) dsMinProducts() int {
	if o.DSMinProducts <= 0 {
		return 4
	}
	return o.DSMinProducts
}

// Result is the outcome of a synthesis run.
type Result struct {
	// Assignment is the best verified lattice implementation found.
	Assignment *lattice.Assignment
	// Grid is the lattice shape of Assignment.
	Grid lattice.Grid
	// Size is Grid.M × Grid.N.
	Size int
	// LB is the structural lower bound; OUB the best of DP/PS/DPS; NUB the
	// initial upper bound actually used (min over enabled methods).
	LB, OUB, NUB int
	// UBMethod names the construction that produced NUB.
	UBMethod string
	// MatchedLB is true when Size == LB (solution provably minimum up to
	// the soundness of the structural bound).
	MatchedLB bool
	// LMSolved counts LM SAT problems decided during the search.
	LMSolved int
	// ClausesAdded totals the CNF clauses handed to the pool's solvers
	// across every LM solve of the search (including DS sub-syntheses).
	ClausesAdded int64
	// ClausesRebuilt is the clause volume a rebuild-per-iteration CEGAR
	// engine would have pushed; the gap to ClausesAdded is the saving of
	// the incremental engine.
	ClausesRebuilt int64
	// CegarIters totals CEGAR refinement iterations across LM solves.
	CegarIters int64
	// SharedReused counts LM solves answered on a grid skeleton the pool
	// had already written.
	SharedReused int64
	// TransferredCEX totals the counterexample-entry clauses candidates
	// inherited from entries other candidates discovered.
	TransferredCEX int64
	// CEXFiltered totals the counterexample entries the pool's transfer
	// quality filter declined to write; LearntsPruned the learnt clauses
	// it shed on grid switches. Both are speed-only knobs — see
	// encode.Options.CEXTransferLimit.
	CEXFiltered   int64
	LearntsPruned int64
	// GridsProbed lists the distinct lattice shapes ("MxN") whose LM
	// problem the search attempted, in first-probe order, DS/MF
	// sub-syntheses included. The flight recorder and job traces use it
	// to explain where a request's time went.
	GridsProbed []string
	// FinalLB is the lower bound when the search stopped: equal to Size
	// when the dichotomic search converged (no smaller candidate exists),
	// lower when a budget or cancellation stopped it early — the
	// remaining gap is the unexplored sizes.
	FinalLB int
	// Partial reports that the search stopped on budget expiry or
	// cancellation before the bounds met. Assignment is still a verified
	// mapping of the target; Partial only means a smaller lattice might
	// exist between FinalLB and Size.
	Partial bool
	// Elapsed is the wall-clock synthesis time.
	Elapsed time.Duration
	// ISOP and DualISOP are the minimized forms the search operated on.
	ISOP, DualISOP cube.Cover
}

// ErrUnsupported is returned for targets outside the engine's limits.
var ErrUnsupported = errors.New("core: unsupported target")

// Synthesize runs JANUS on a single-output function.
func Synthesize(f cube.Cover, opt Options) (Result, error) {
	start := time.Now()
	if f.N > encode.MaxInputs {
		return Result{}, fmt.Errorf("%w: %d inputs", ErrUnsupported, f.N)
	}
	if opt.Budget > 0 && opt.Deadline.IsZero() {
		opt.Deadline = start.Add(opt.Budget)
	}
	if opt.Ctx != nil && opt.Encode.Limits.Interrupt == nil {
		// Thread the context into every SAT call so cancellation reaches
		// solves already in flight, not just the gaps between them.
		opt.Encode.Limits.Interrupt = opt.Ctx.Done()
	}
	if opt.Encode.Shared == nil {
		// One pool per top-level synthesis serves every LM solve it makes:
		// DS and MF sub-syntheses inherit it through opt.Encode (keyed by
		// cover, so their part-covers never collide). The engines grow with
		// every skeleton, so the pool lives exactly as long as the search
		// amortizing them.
		opt.Encode.Shared = encode.NewSharedPool()
	}
	if opt.Tracer == nil {
		// Ctx-carried tracing: the service attaches a per-job tracer and
		// its Job root span to the context it hands us.
		opt.Tracer = obsv.TracerFromContext(opt.Ctx)
		if opt.TraceParent == nil {
			opt.TraceParent = obsv.SpanFromContext(opt.Ctx)
		}
	}
	if opt.Progress == nil {
		// Ctx-carried progress, same carrier discipline as the tracer.
		opt.Progress = obsv.ProgressFromContext(opt.Ctx)
	}
	prog := &progTrail{sink: opt.Progress, sub: opt.sub, start: start}
	root := obsv.Start(opt.Tracer, opt.TraceParent, "Synthesize")
	defer root.End()
	root.SetInt("inputs", int64(f.N))
	if id := obsv.RequestIDFromContext(opt.Ctx); id != "" {
		root.SetStr("request_id", id)
	}
	mSyntheses.Inc()

	var isop, dual cube.Cover
	{
		minSpan, done := phase(prog, root, "Minimize", "minimize", mPhaseMinimNS)
		if opt.SkipMinimize {
			isop = f
			dual = minimize.Auto(f.Dual())
		} else {
			isop, dual = minimize.AutoDual(f)
		}
		minSpan.SetInt("products", int64(len(isop.Cubes)))
		done()
	}

	res := Result{ISOP: isop, DualISOP: dual}

	// Constants: a single switch suffices.
	if isop.IsZero() || isop.IsOne() {
		g := lattice.Grid{M: 1, N: 1}
		a := lattice.NewAssignment(g)
		if isop.IsOne() {
			a.Entries[0] = lattice.Entry{Kind: lattice.Const1}
		}
		res.Assignment, res.Grid, res.Size = a, g, 1
		res.LB, res.OUB, res.NUB = 1, 1, 1
		res.UBMethod = "const"
		res.MatchedLB = true
		res.FinalLB = 1
		prog.incumbent(a, "const")
		prog.bound(1, 1, "const")
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// Initial upper bounds.
	boundsSpan, boundsDone := phase(prog, root, "Bounds", "bounds", mPhaseBoundNS)
	plain := bounds.All(isop, dual, false)
	improved := plain
	if !opt.DisableImprovedBounds {
		improved = bounds.All(isop, dual, true)
	}
	if len(plain) == 0 || len(improved) == 0 {
		boundsDone()
		return Result{}, fmt.Errorf("%w: no verified upper bound", ErrUnsupported)
	}
	res.OUB = plain[0].Size()
	best := improved[0]
	incumbent := best.Assignment
	res.UBMethod = best.Name
	boundsSpan.SetInt("oub", int64(res.OUB))
	boundsSpan.SetInt("ub", int64(incumbent.Size()))
	prog.incumbent(incumbent, best.Name)
	prog.bound(0, incumbent.Size(), best.Name)
	boundsDone()

	var st lmStats
	if !opt.DisableDS && !opt.DisableImprovedBounds &&
		len(isop.Cubes) >= opt.dsMinProducts() && !opt.expired() {
		// DS spends SAT effort on an upper bound only; under a wall-clock
		// budget it gets at most a third so the dichotomic search keeps
		// the lion's share.
		dsSpan, dsDone := phase(prog, root, "DSBound", "ds", mPhaseDSNS)
		dsOpt := opt
		dsOpt.TraceParent = dsSpan
		dsOpt.Encode.Span = dsSpan // reduceRows' direct LM calls
		if opt.Budget > 0 {
			if dsCap := start.Add(opt.Budget / 3); dsCap.Before(dsOpt.Deadline) {
				dsOpt.Deadline = dsCap
			}
		}
		if ds := dsBound(isop, dual, dsOpt, &st); ds != nil && ds.Size() < incumbent.Size() {
			incumbent = ds
			res.UBMethod = "DS"
			prog.incumbent(incumbent, "DS")
			prog.bound(0, incumbent.Size(), "DS")
		}
		dsSpan.SetInt("ub", int64(incumbent.Size()))
		dsDone()
	}
	res.NUB = incumbent.Size()

	// Lower bound (Section III-B).
	lb := bounds.LowerBound(isop, dual, incumbent.Size())
	res.LB = lb
	prog.bound(lb, incumbent.Size(), "lb")

	// Dichotomic search (Section III, steps 2-6). Candidates for midpoint
	// mp are the maximal grids of area ≤ mp: realizability is monotone in
	// both dimensions (a row or column can always be duplicated), so if
	// anything of area ≤ mp fits, a maximal grid fits. The upper bound
	// updates to the area actually found, which may be below mp.
	ub := incumbent.Size()
	srchSpan, srchDone := phase(prog, root, "Search", "search", mPhaseSrchNS)
	for lb < ub && !opt.expired() {
		mp := (lb + ub) / 2
		mMidpoints.Inc()
		step := srchSpan.Child("DichotomicStep")
		step.SetInt("lb", int64(lb))
		step.SetInt("ub", int64(ub))
		step.SetInt("mp", int64(mp))
		cands := candidates(mp, lb, opt.maxCells())
		step.SetInt("candidates", int64(len(cands)))
		best, err := solveCandidates(isop, dual, cands, opt, step, &st)
		if err != nil {
			step.SetStr("outcome", "error")
			step.End()
			srchDone()
			return res, err
		}
		if best != nil {
			incumbent = best
			ub = best.Size()
			step.SetStr("outcome", "sat")
			step.SetInt("size", int64(ub))
			prog.incumbent(incumbent, "sat")
			prog.bound(lb, ub, "sat")
		} else {
			lb = mp + 1
			step.SetStr("outcome", "unsat")
			prog.bound(lb, ub, "unsat")
		}
		prog.step(len(st.grids))
		step.End()
	}
	srchDone()
	res.FinalLB = lb
	res.Partial = lb < ub

	res.LMSolved = st.solved
	res.ClausesAdded = st.added
	res.ClausesRebuilt = st.rebuilt
	res.CegarIters = st.iters
	res.SharedReused = st.reused
	res.TransferredCEX = st.transferred
	res.GridsProbed = st.grids
	res.CEXFiltered = st.filtered
	res.LearntsPruned = st.pruned
	res.Assignment = incumbent
	res.Grid = incumbent.Grid
	res.Size = incumbent.Size()
	res.MatchedLB = res.Size == res.LB
	res.Elapsed = time.Since(start)
	root.SetStr("grid", res.Grid.String())
	root.SetInt("size", int64(res.Size))
	root.SetInt("lm_solved", int64(res.LMSolved))
	root.SetInt("final_lb", int64(res.FinalLB))
	if res.Partial {
		root.SetBool("partial", true)
	}
	return res, nil
}

// lmStats accumulates per-LM-solve effort counters across the search:
// decided problems, clause volumes, and CEGAR iterations. It is threaded
// by pointer through the search helpers (single-goroutine each; the
// parallel candidate path aggregates after its WaitGroup).
type lmStats struct {
	solved      int
	added       int64
	rebuilt     int64
	iters       int64
	reused      int64
	transferred int64
	filtered    int64
	pruned      int64
	grids       []string
	gridSeen    map[string]bool
}

// probe records one attempted lattice shape, deduplicated.
func (st *lmStats) probe(g lattice.Grid) {
	key := g.String()
	if st.gridSeen[key] {
		return
	}
	if st.gridSeen == nil {
		st.gridSeen = make(map[string]bool)
	}
	st.gridSeen[key] = true
	st.grids = append(st.grids, key)
}

// note folds one LM solve's counters in.
func (st *lmStats) note(r encode.Result) {
	if !r.Structural {
		st.solved++
		mLMSolved.Inc()
	}
	st.added += int64(r.AddedClauses)
	st.rebuilt += int64(r.RebuiltClauses)
	st.iters += int64(r.CegarIters)
	st.reused += int64(r.ReusedSolvers)
	st.transferred += int64(r.TransferredCEXClauses)
	st.filtered += int64(r.TransferFiltered)
	st.pruned += int64(r.PrunedLearnts)
}

// noteResult folds a sub-synthesis' aggregated counters in.
func (st *lmStats) noteResult(r Result) {
	st.solved += r.LMSolved
	st.added += r.ClausesAdded
	st.rebuilt += r.ClausesRebuilt
	st.iters += r.CegarIters
	st.reused += r.SharedReused
	st.transferred += r.TransferredCEX
	st.filtered += r.CEXFiltered
	st.pruned += r.LearntsPruned
	for _, g := range r.GridsProbed {
		if !st.gridSeen[g] {
			if st.gridSeen == nil {
				st.gridSeen = make(map[string]bool)
			}
			st.gridSeen[g] = true
			st.grids = append(st.grids, g)
		}
	}
}

// solveCandidates decides the LM problem for each candidate, sequentially
// or with opt.Workers goroutines, and returns the best (smallest-area,
// then earliest) satisfiable assignment, folding solve effort into st.
// Candidate spans attach under the step span (nil when tracing is off).
func solveCandidates(isop, dual cube.Cover, cands []lattice.Grid, opt Options, step *obsv.Span, st *lmStats) (*lattice.Assignment, error) {
	eopt := opt.Encode
	eopt.Span = step
	if opt.Workers < 2 || len(cands) < 2 {
		for _, g := range cands {
			if opt.expired() {
				break
			}
			st.probe(g)
			r, err := encode.SolveLMCegar(isop, dual, g, eopt)
			if err != nil {
				return nil, err
			}
			st.note(r)
			if r.Status == sat.Sat {
				return r.Assignment, nil
			}
		}
		return nil, nil
	}

	results := make([]encode.Result, len(cands))
	errs := make([]error, len(cands))
	sem := make(chan struct{}, opt.Workers)
	var wg sync.WaitGroup
	for i, g := range cands {
		wg.Add(1)
		go func(i int, g lattice.Grid) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = encode.SolveLMCegar(isop, dual, g, eopt)
		}(i, g)
	}
	wg.Wait()

	var best *lattice.Assignment
	for i, r := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		st.probe(cands[i])
		st.note(r)
		if r.Status == sat.Sat {
			if best == nil || r.Assignment.Size() < best.Size() {
				best = r.Assignment
			}
		}
	}
	return best, nil
}

// candidates returns the maximal lattice shapes of area at most size: one
// grid (m, size/m) per row count m, skipping grids whose area falls below
// the lower bound or above the cell limit, deduplicated and ordered
// nearest-to-square first (deterministic).
func candidates(size, lb, maxCells int) []lattice.Grid {
	if size > maxCells {
		size = maxCells
	}
	seen := make(map[lattice.Grid]bool)
	var gs []lattice.Grid
	for m := 1; m <= size; m++ {
		n := size / m
		if n < 1 {
			break
		}
		g := lattice.Grid{M: m, N: n}
		if g.Cells() < lb || seen[g] {
			continue
		}
		seen[g] = true
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool {
		di := gs[i].M - gs[i].N
		if di < 0 {
			di = -di
		}
		dj := gs[j].M - gs[j].N
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di < dj
		}
		return gs[i].M > gs[j].M // prefer taller first among equals
	})
	return gs
}

// subOptions strips the recursive features for DS/MF sub-syntheses.
func subOptions(opt Options) Options {
	sub := opt
	sub.DisableDS = true
	sub.SkipMinimize = true
	sub.sub = true
	return sub
}

// dsBound implements the divide-and-synthesize upper bound (Section
// III-B): split the products into two balanced halves, synthesize each
// with JANUS, pack the two solutions side by side with one isolation
// column, and then iterate the row-reduction exploration.
func dsBound(isop, dual cube.Cover, opt Options, st *lmStats) *lattice.Assignment {
	g, h := partitionProducts(isop)
	if len(g.Cubes) == 0 || len(h.Cubes) == 0 {
		return nil
	}
	sub := subOptions(opt)
	parts := make([]*part, 2)
	for i, cov := range []cube.Cover{g, h} {
		covDual := minimize.Auto(cov.Dual())
		r, err := Synthesize(cov, sub)
		if err != nil || r.Assignment == nil {
			return nil
		}
		st.noteResult(r)
		parts[i] = &part{isop: cov, dual: covDual, sol: r.Assignment}
	}
	packed := packParts(parts)
	if packed == nil || !packed.Realizes(isop) {
		return nil
	}
	reduced := reduceRows(parts, sub, st)
	if reduced != nil && reduced.Size() < packed.Size() && reduced.Realizes(isop) {
		return reduced
	}
	return packed
}

// partitionProducts splits the ISOP products into two sub-covers with
// balanced product counts and literal counts (greedy largest-first).
func partitionProducts(isop cube.Cover) (g, h cube.Cover) {
	cubes := make([]cube.Cube, len(isop.Cubes))
	copy(cubes, isop.Cubes)
	sort.Slice(cubes, func(i, j int) bool {
		return cubes[j].NumLiterals() < cubes[i].NumLiterals()
	})
	g = cube.Zero(isop.N)
	h = cube.Zero(isop.N)
	gl, hl := 0, 0
	for _, c := range cubes {
		// Keep product counts within one of each other; break ties toward
		// the lighter literal load.
		switch {
		case len(g.Cubes) > len(h.Cubes):
			h.Cubes = append(h.Cubes, c)
			hl += c.NumLiterals()
		case len(h.Cubes) > len(g.Cubes):
			g.Cubes = append(g.Cubes, c)
			gl += c.NumLiterals()
		case gl <= hl:
			g.Cubes = append(g.Cubes, c)
			gl += c.NumLiterals()
		default:
			h.Cubes = append(h.Cubes, c)
			hl += c.NumLiterals()
		}
	}
	return g, h
}

// part is one sub-function with its current lattice solution.
type part struct {
	isop, dual cube.Cover
	sol        *lattice.Assignment
}

// packParts joins part solutions horizontally: one constant-0 isolation
// column between neighbours, shorter parts padded at the bottom with
// constant 1 (which preserves each region's function because the regions
// are flanked by the zero columns or the lattice boundary).
func packParts(parts []*part) *lattice.Assignment {
	if len(parts) == 0 {
		return nil
	}
	rows, cols := 0, 0
	for i, p := range parts {
		if p.sol.Grid.M > rows {
			rows = p.sol.Grid.M
		}
		cols += p.sol.Grid.N
		if i > 0 {
			cols++
		}
	}
	a := lattice.NewAssignment(lattice.Grid{M: rows, N: cols})
	c0 := 0
	for i, p := range parts {
		if i > 0 {
			c0++ // isolation column stays Const0
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < p.sol.Grid.N; c++ {
				if r < p.sol.Grid.M {
					a.Set(r, c0+c, p.sol.At(r, c))
				} else {
					a.Set(r, c0+c, lattice.Entry{Kind: lattice.Const1})
				}
			}
		}
		c0 += p.sol.Grid.N
	}
	return a
}

// packedSize returns the size of the lattice packParts would build.
func packedSize(parts []*part) (rows, cols int) {
	for i, p := range parts {
		if p.sol.Grid.M > rows {
			rows = p.sol.Grid.M
		}
		cols += p.sol.Grid.N
		if i > 0 {
			cols++
		}
	}
	return rows, cols
}

// fixedRowSearch looks for the smallest column count in [lo, hi] such
// that the target fits a rows×k lattice; scanDown controls the paper's
// two scanning directions. It returns nil when nothing in range fits.
func fixedRowSearch(p *part, rows, lo, hi int, opt Options, st *lmStats) *lattice.Assignment {
	if lo < 1 {
		lo = 1
	}
	var best *lattice.Assignment
	for k := lo; k <= hi; k++ {
		if rows*k > opt.maxCells() || opt.expired() {
			break
		}
		st.probe(lattice.Grid{M: rows, N: k})
		r, err := encode.SolveLMCegar(p.isop, p.dual, lattice.Grid{M: rows, N: k}, opt.Encode)
		if err != nil {
			return best
		}
		st.note(r)
		if r.Status == sat.Sat {
			best = r.Assignment
			break
		}
	}
	return best
}

// reduceRows implements step 3 of the DS method (shared with JANUS-MF
// part 2): repeatedly try to lower the overall row count br by one,
// re-synthesizing tall parts on (br−1)×k lattices (growing k) and letting
// shorter parts shrink their widths at the new height, accepting the new
// packing when it reduces the total size. Returns the best packing found,
// or nil when no improvement was possible.
func reduceRows(parts []*part, opt Options, st *lmStats) *lattice.Assignment {
	cur := make([]*part, len(parts))
	copy(cur, parts)
	bcRows, bcCols := packedSize(cur)
	bc := bcRows * bcCols
	var best *lattice.Assignment

	for br := bcRows; br > 3; br-- {
		next := make([]*part, len(cur))
		ok := true
		totalCols := len(cur) - 1
		for i, p := range cur {
			np := &part{isop: p.isop, dual: p.dual, sol: p.sol}
			m, n := p.sol.Grid.M, p.sol.Grid.N
			switch {
			case m >= br:
				// Must fit into br-1 rows; grow columns while the total
				// stays below the incumbent cost.
				budgetCols := bc/(br-1) - (totalCols + colsExcept(cur, i))
				if budgetCols < n {
					budgetCols = n
				}
				sol := fixedRowSearch(np, br-1, n, budgetCols, opt, st)
				if sol == nil {
					ok = false
				} else {
					np.sol = sol
				}
			case m > 1 && m < br-1 && n > 1:
				// Extra height available: try to shrink the width.
				if sol := trimCols(np, br-1, n-1, opt, st); sol != nil {
					np.sol = sol
				}
			}
			if !ok {
				break
			}
			next[i] = np
		}
		if !ok {
			break
		}
		nr, nc := packedSize(next)
		if nr*nc < bc {
			cur = next
			bc = nr * nc
			best = packParts(cur)
		} else {
			cur = next // keep trying shorter stacks anyway
		}
	}
	return best
}

func colsExcept(parts []*part, skip int) int {
	t := 0
	for i, p := range parts {
		if i != skip {
			t += p.sol.Grid.N
		}
	}
	return t
}

// trimCols finds the narrowest rows×k lattice with k ≤ hi that still
// realizes the part, scanning downward as the paper describes.
func trimCols(p *part, rows, hi int, opt Options, st *lmStats) *lattice.Assignment {
	var best *lattice.Assignment
	for k := hi; k >= 1; k-- {
		if rows*k > opt.maxCells() {
			continue
		}
		if opt.expired() {
			break
		}
		st.probe(lattice.Grid{M: rows, N: k})
		r, err := encode.SolveLMCegar(p.isop, p.dual, lattice.Grid{M: rows, N: k}, opt.Encode)
		if err != nil {
			return best
		}
		st.note(r)
		if r.Status != sat.Sat {
			break
		}
		best = r.Assignment
	}
	return best
}
