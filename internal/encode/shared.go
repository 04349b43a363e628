package encode

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/sat"
	"github.com/lattice-tools/janus/internal/truth"
)

// SharedPool keeps one assumption-based SAT engine alive per (cover,
// orientation) and shares it across every candidate grid the dichotomic
// search probes: candidates of one midpoint, and the same shapes again at
// adjacent midpoints. Each grid's skeleton enters the engine once, guarded
// by a fresh activation literal, and solving a candidate means running the
// one persistent solver under the assumption that its activation literal
// is true (and every other grid's is false). Clauses learnt while probing
// one candidate mention the activation literals explicitly, so they stay
// globally sound and keep pruning the next candidate; CEGAR
// counterexample entries are grid-independent knowledge and are stamped
// into every skeleton, so a truth-table point one candidate stumbled over
// never has to be rediscovered by another.
//
// A pool is safe for concurrent use; candidates that share an engine
// serialize on it (distinct orientations — and distinct covers, as in the
// DS sub-syntheses — still run in parallel).
type SharedPool struct {
	mu      sync.Mutex
	engines map[poolKey]*sharedEngine
}

// NewSharedPool returns an empty pool. One pool per synthesis is the
// intended scope: the engines hold solvers whose size grows with every
// grid skeleton, so the pool should live exactly as long as the search
// that amortizes them.
func NewSharedPool() *SharedPool {
	return &SharedPool{engines: make(map[poolKey]*sharedEngine)}
}

// poolKey identifies one engine: the encoded cover, the orientation, and
// the option fields that change the stamped formula.
type poolKey struct {
	cover     string
	dual      bool
	facts     bool
	degree    bool
	symmetry  bool
	fullTL    bool
	strict    bool
	longThres int
}

func keyOf(enc cube.Cover, dual bool, opt Options) poolKey {
	return poolKey{
		cover:     memo.CoverKey(enc),
		dual:      dual,
		facts:     !opt.DisableFacts,
		degree:    !opt.DisableDegree,
		symmetry:  !opt.DisableSymmetry,
		fullTL:    opt.FullTL,
		strict:    opt.StrictProducts,
		longThres: opt.longThreshold(),
	}
}

// engine returns the pool's engine for (enc, dual), creating it on first
// use. The caller must hold the returned engine's lock while solving.
func (p *SharedPool) engine(enc cube.Cover, dual bool, opt Options) *sharedEngine {
	k := keyOf(enc, dual, opt)
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.engines[k]; ok {
		return e
	}
	e := &sharedEngine{
		s:      sat.New(0),
		enc:    enc,
		encTab: memo.TableOf(enc),
		tl:     buildTL(enc, opt.FullTL),
		dual:   dual,
		opt:    opt,
		grids:  make(map[lattice.Grid]*gridSkeleton),
	}
	// Seed the shared entry set with one on- and one off-entry of the
	// encoded function, exactly like the per-candidate engine: every
	// skeleton will be stamped with them before its first solve.
	var sawOn, sawOff bool
	for t := uint64(0); t < e.encTab.Size() && (!sawOn || !sawOff); t++ {
		if v := e.encTab.Get(t); v && !sawOn {
			sawOn = true
			e.noteEntry(t)
		} else if !v && !sawOff {
			sawOff = true
			e.noteEntry(t)
		}
	}
	p.engines[k] = e
	return e
}

// sharedEngine is one persistent assumption-based solver holding the
// skeletons of every grid probed so far for one (cover, orientation).
type sharedEngine struct {
	mu     sync.Mutex
	s      *sat.Solver
	enc    cube.Cover
	encTab *truth.Table
	tl     []targetLit
	dual   bool
	opt    Options // formula-shaping fields only; Limits/Span come per call

	grids map[lattice.Grid]*gridSkeleton
	// entryOrder is the shared CEGAR knowledge: every truth-table entry
	// any candidate's refinement discovered, in discovery order. entrySet
	// mirrors it for membership tests.
	entryOrder []uint64
	entrySet   map[uint64]bool
	// lastGrid is the grid the previous solveGrid call probed; a switch
	// to a different grid is the moment the learnt-quality prune runs.
	lastGrid lattice.Grid
	haveLast bool
}

// gridSkeleton is one grid's slice of the shared formula.
type gridSkeleton struct {
	g       lattice.Grid
	act     sat.Lit        // activation literal guarding the skeleton
	mapVars [][]sat.Lit    // [cell][tlIdx]
	paths   []lattice.Path // memo-shared; read-only
	entries map[uint64]bool
	clauses int // clauses belonging to this grid, guards included
}

func (e *sharedEngine) noteEntry(t uint64) {
	if e.entrySet == nil {
		e.entrySet = make(map[uint64]bool)
	}
	if !e.entrySet[t] {
		e.entrySet[t] = true
		e.entryOrder = append(e.entryOrder, t)
	}
}

// lit allocates a fresh solver variable as a positive literal.
func (e *sharedEngine) lit() sat.Lit { return sat.MkLit(e.s.AddVar(), false) }

// stamp writes one clause straight into the shared solver — no Builder,
// no debug names — and counts it against the skeleton.
func (e *sharedEngine) stamp(sk *gridSkeleton, lits ...sat.Lit) {
	e.s.AddClause(lits...)
	sk.clauses++
}

// guarded stamps (¬act ∨ C). Only clauses that force something positive
// about the grid need the guard: every other clause of a skeleton is
// satisfied by the all-false assignment of its own variables, so it can
// stay unguarded (cheaper to propagate, and binary clauses stay binary).
func (e *sharedEngine) guarded(sk *gridSkeleton, lits ...sat.Lit) {
	cls := make([]sat.Lit, 0, len(lits)+1)
	cls = append(cls, sk.act.Not())
	cls = append(cls, lits...)
	e.stamp(sk, cls...)
}

// skeleton returns the grid's slice of the formula, stamping it on first
// use, and brings its entry set up to date with the shared knowledge —
// bounded by the transfer quality filter: at most limit of the missing
// entries transfer in, most recent first (the search frontier's
// discoveries; a negative limit transfers everything). Returns the
// skeleton, whether it was reused, the clause count of the transferred
// entries, and how many entries the filter dropped. Dropping is
// speed-only: the skeleton stays a relaxation of the full LM problem, so
// Unsat remains definitive and a dropped entry that matters is
// rediscovered by this candidate's own refinement.
func (e *sharedEngine) skeleton(g lattice.Grid, limit int) (sk *gridSkeleton, reused bool, transferred, filtered int) {
	sk, reused = e.grids[g]
	if !reused {
		sk = e.newSkeleton(g)
		e.grids[g] = sk
	}
	before := sk.clauses
	missing := make([]uint64, 0, len(e.entryOrder))
	for _, t := range e.entryOrder {
		if !sk.entries[t] {
			missing = append(missing, t)
		}
	}
	keep := missing
	if limit >= 0 && len(missing) > limit {
		keep = missing[len(missing)-limit:]
		filtered = len(missing) - limit
	}
	for _, t := range keep {
		e.stampEntry(sk, t)
	}
	return sk, reused, sk.clauses - before, filtered
}

// newSkeleton stamps the entry-independent part of one grid's encoding:
// mapping variables with a guarded at-least-one (the at-most-one pairs
// are self-satisfiable and stay unguarded), the degree / strict-product
// constraints with guarded ORs, and the unguarded symmetry break. This
// mirrors newProblem exactly, modulo the activation guard.
func (e *sharedEngine) newSkeleton(g lattice.Grid) *gridSkeleton {
	sk := &gridSkeleton{g: g, entries: make(map[uint64]bool)}
	sk.paths = memo.Paths(g, e.dual)
	sk.act = e.lit()
	cells := g.Cells()

	sk.mapVars = make([][]sat.Lit, cells)
	for cell := 0; cell < cells; cell++ {
		row := make([]sat.Lit, len(e.tl))
		for j := range row {
			row[j] = e.lit()
		}
		sk.mapVars[cell] = row
		e.guarded(sk, row...)
		for i := 0; i < len(row); i++ {
			for j := i + 1; j < len(row); j++ {
				e.stamp(sk, row[i].Not(), row[j].Not())
			}
		}
	}
	if !e.opt.DisableDegree {
		e.stampDegree(sk)
	}
	if e.opt.StrictProducts {
		e.stampStrict(sk)
	}
	if !e.opt.DisableSymmetry {
		e.stampSymmetry(sk)
	}
	return sk
}

// litChoices indexes the TL set entries a cube's literals allow.
func (e *sharedEngine) litChoices(c cube.Cube, allowOne bool) []int {
	var idx []int
	for j, tl := range e.tl {
		switch tl.Kind {
		case lattice.Const1:
			if allowOne {
				idx = append(idx, j)
			}
		case lattice.PosVar:
			if c.HasPos(tl.Var) {
				idx = append(idx, j)
			}
		case lattice.NegVar:
			if c.HasNeg(tl.Var) {
				idx = append(idx, j)
			}
		}
	}
	return idx
}

// stampRealization is addRealization with the activation guard on the
// positive OR(z): the z→mapping clauses are satisfied by all-false z.
func (e *sharedEngine) stampRealization(sk *gridSkeleton, q cube.Cube, cands []lattice.Path, allowOne bool) {
	if len(cands) == 0 {
		return
	}
	choices := e.litChoices(q, allowOne)
	or := make([]sat.Lit, 0, len(cands))
	for _, path := range cands {
		z := e.lit()
		for _, cell := range path.Cells {
			cls := make([]sat.Lit, 0, len(choices)+1)
			cls = append(cls, z.Not())
			for _, j := range choices {
				cls = append(cls, sk.mapVars[cell][j])
			}
			e.stamp(sk, cls...)
		}
		or = append(or, z)
	}
	e.guarded(sk, or...)
}

func (e *sharedEngine) stampDegree(sk *gridSkeleton) {
	maxPath := 0
	for _, path := range sk.paths {
		if path.Len() > maxPath {
			maxPath = path.Len()
		}
	}
	delta := e.enc.Degree()
	long := e.opt.longThreshold()
	for _, q := range e.enc.Cubes {
		nl := q.NumLiterals()
		if nl == delta && delta == maxPath {
			var cands []lattice.Path
			for _, path := range sk.paths {
				if path.Len() == delta {
					cands = append(cands, path)
				}
			}
			e.stampRealization(sk, q, cands, false)
		} else if nl > long {
			var cands []lattice.Path
			for _, path := range sk.paths {
				if path.Len() >= nl {
					cands = append(cands, path)
				}
			}
			e.stampRealization(sk, q, cands, true)
		}
	}
}

func (e *sharedEngine) stampStrict(sk *gridSkeleton) {
	for _, q := range e.enc.Cubes {
		choices := e.litChoices(q, true)
		or := make([]sat.Lit, 0, len(sk.paths))
		for _, path := range sk.paths {
			if path.Len() < q.NumLiterals() {
				continue
			}
			z := e.lit()
			for _, cell := range path.Cells {
				cls := make([]sat.Lit, 0, len(choices)+1)
				cls = append(cls, z.Not())
				for _, j := range choices {
					cls = append(cls, sk.mapVars[cell][j])
				}
				e.stamp(sk, cls...)
			}
			or = append(or, z)
		}
		if len(or) == 0 {
			// No path can host this product. The monolithic encoder emits
			// the empty clause here; in a shared solver that would poison
			// every other grid, so force only this grid off instead.
			e.guarded(sk)
			return
		}
		e.guarded(sk, or...)
	}
}

func (e *sharedEngine) stampSymmetry(sk *gridSkeleton) {
	g := sk.g
	choiceLE := func(a, b int) {
		for j := 1; j < len(e.tl); j++ {
			for k := 0; k < j; k++ {
				e.stamp(sk, sk.mapVars[a][j].Not(), sk.mapVars[b][k].Not())
			}
		}
	}
	c00 := g.Cell(0, 0)
	if g.N > 1 {
		choiceLE(c00, g.Cell(0, g.N-1))
	}
	if g.M > 1 {
		choiceLE(c00, g.Cell(g.M-1, 0))
	}
}

// stampEntry writes the clauses of one truth-table entry for one grid
// from the skeleton's path templates: per-cell Y variables linked to the
// mapping choice, then the off-entry per-path clauses or the on-entry
// path disjunction plus the connectivity facts. Everything here except
// the positive ORs is satisfied by the all-false assignment, so only
// those carry the activation guard — which is exactly what lets an
// entry, once stamped, keep constraining the grid across later
// activations and lets the entry knowledge transfer between candidates.
func (e *sharedEngine) stampEntry(sk *gridSkeleton, t uint64) {
	val := e.encTab.Get(t)
	cells := sk.g.Cells()
	yBase := e.s.NumVars()
	e.s.EnsureVars(yBase + cells)
	y := func(cell int) sat.Lit { return sat.MkLit(yBase+cell, false) }

	for cell := 0; cell < cells; cell++ {
		for j := range e.tl {
			if e.tl[j].Eval(t) {
				e.stamp(sk, sk.mapVars[cell][j].Not(), y(cell))
			} else {
				e.stamp(sk, sk.mapVars[cell][j].Not(), y(cell).Not())
			}
		}
	}
	if !val {
		var buf []sat.Lit
		for _, path := range sk.paths {
			buf = buf[:0]
			for _, cell := range path.Cells {
				buf = append(buf, y(int(cell)).Not())
			}
			e.stamp(sk, buf...)
		}
	} else {
		or := make([]sat.Lit, 0, len(sk.paths))
		for _, path := range sk.paths {
			a := e.lit()
			for _, cell := range path.Cells {
				e.stamp(sk, a.Not(), y(int(cell)))
			}
			or = append(or, a)
		}
		e.guarded(sk, or...)
		if !e.opt.DisableFacts {
			e.stampFacts(sk, y)
		}
	}
	sk.entries[t] = true
}

// stampFacts mirrors addFacts: both structural facts are positive ORs, so
// both take the guard; the pair implications stay unguarded.
func (e *sharedEngine) stampFacts(sk *gridSkeleton, y func(int) sat.Lit) {
	g := sk.g
	ranks, perRank := g.M, g.N
	rankCell := func(rank, i int) int { return g.Cell(rank, i) }
	if e.dual {
		ranks, perRank = g.N, g.M
		rankCell = func(rank, i int) int { return g.Cell(i, rank) }
	}
	for r := 0; r < ranks; r++ {
		cls := make([]sat.Lit, perRank)
		for i := 0; i < perRank; i++ {
			cls[i] = y(rankCell(r, i))
		}
		e.guarded(sk, cls...)
	}
	for r := 0; r+1 < ranks; r++ {
		var or []sat.Lit
		for i := 0; i < perRank; i++ {
			jLo, jHi := i, i
			if e.dual {
				jLo, jHi = i-1, i+1
			}
			for j := jLo; j <= jHi; j++ {
				if j < 0 || j >= perRank {
					continue
				}
				pair := e.lit()
				e.stamp(sk, pair.Not(), y(rankCell(r, i)))
				e.stamp(sk, pair.Not(), y(rankCell(r+1, j)))
				or = append(or, pair)
			}
		}
		e.guarded(sk, or...)
	}
}

// decode extracts the active grid's assignment from the solver model,
// with the dual constant swap of problem.decode.
func (e *sharedEngine) decode(sk *gridSkeleton) *lattice.Assignment {
	a := lattice.NewAssignment(sk.g)
	for cell := range sk.mapVars {
		for j, mv := range sk.mapVars[cell] {
			if e.s.Model(mv.Var()) {
				ent := e.tl[j]
				if e.dual {
					switch ent.Kind {
					case lattice.Const0:
						ent = targetLit{Kind: lattice.Const1}
					case lattice.Const1:
						ent = targetLit{Kind: lattice.Const0}
					}
				}
				a.Entries[cell] = ent
				break
			}
		}
	}
	return a
}

// assumptions builds the call's assumption vector: the probed grid's
// activation literal true, every other registered grid's false. The
// negative assumptions are not needed for soundness (an inactive grid's
// guarded clauses are satisfiable outright) but pin the model and the
// search away from foreign skeletons. They are sorted because e.grids is
// a map: activation variables are allocated in registration order, so the
// sorted vector is the same on every run, and so is the search it steers.
func (e *sharedEngine) assumptions(sk *gridSkeleton) []sat.Lit {
	as := make([]sat.Lit, 0, len(e.grids))
	as = append(as, sk.act)
	for _, other := range e.grids {
		if other != sk {
			as = append(as, other.act.Not())
		}
	}
	slices.Sort(as[1:])
	return as
}

// solveGrid runs the CEGAR refinement for one candidate grid on the
// shared solver. target/targetTab describe f (what the decoded
// assignment must implement); the engine encodes enc, which is f or f^D
// depending on orientation.
func (e *sharedEngine) solveGrid(target cube.Cover, targetTab *truth.Table,
	g lattice.Grid, opt Options, deadline time.Time) (res Result, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	clausesBefore := 0
	if prev, ok := e.grids[g]; ok {
		clausesBefore = prev.clauses
	}
	// Grid switch: before stamping the new candidate, shed the learnt
	// clauses whose quality says they mostly served the previous one.
	pruned := 0
	if e.haveLast && e.lastGrid != g {
		if maxLBD, maxSize, on := opt.learntPrune(); on {
			pruned = e.s.PruneLearnts(maxLBD, maxSize)
		}
	}
	e.lastGrid, e.haveLast = g, true

	sk, reused, transferred, filtered := e.skeleton(g, opt.cexTransferLimit())
	res = Result{
		UsedDual:              e.dual,
		TransferredCEXClauses: transferred,
		TransferFiltered:      filtered,
		PrunedLearnts:         pruned,
	}
	if reused {
		res.ReusedSolvers = 1
		mSharedReused.Inc()
	}
	mSharedTransfer.Add(int64(transferred))
	mSharedFiltered.Add(int64(filtered))
	mSharedPruned.Add(int64(pruned))

	cand, setSpan := startCandidate(opt.Span, g, e.dual, "shared", e.s)
	defer func() {
		res.StampedClauses = sk.clauses - clausesBefore
		res.AddedClauses = res.StampedClauses
		mSharedStamped.Add(int64(res.StampedClauses))
		mClausesAdded.Add(int64(res.StampedClauses))
		mClausesRebld.Add(int64(res.RebuiltClauses))
		noteStatus(cand, res)
		cand.SetInt("stamped_clauses", int64(res.StampedClauses))
		cand.SetInt("transferred_cex_clauses", int64(transferred))
		cand.SetInt("transfer_filtered", int64(filtered))
		cand.SetInt("learnts_pruned", int64(pruned))
		cand.SetInt("reused", int64(res.ReusedSolvers))
		cand.End()
	}()

	for {
		select {
		case <-opt.Limits.Interrupt:
			res.Status = sat.Unknown
			return res, nil
		default:
		}
		iterSpan := cand.Child("CegarIter")
		iterSpan.SetInt("iter", int64(res.CegarIters))
		res.CegarIters++
		res.RebuiltClauses += sk.clauses
		mCegarIters.Inc()

		lims := opt.Limits
		if lims.MaxConflicts > 0 {
			// Relative to the conflicts the shared solver has already spent
			// (across every candidate), exactly like the per-candidate
			// engine's persistent-solver accounting.
			lims.MaxConflicts += e.s.Stats().Conflicts
		}
		if !deadline.IsZero() {
			remain := time.Until(deadline)
			if remain <= 0 {
				res.Status = sat.Unknown
				iterSpan.SetStr("outcome", "deadline")
				iterSpan.End()
				return res, nil
			}
			lims.Timeout = remain
		}
		solveSpan := iterSpan.Child("SatSolve")
		setSpan(solveSpan)
		st := e.s.SolveAssume(lims, e.assumptions(sk)...)
		solveSpan.End()
		res.Status = st
		res.Vars = e.s.NumVars()
		res.Clauses = sk.clauses
		res.SolverStat = e.s.Stats()
		if st != sat.Sat {
			if st == sat.Unsat {
				core := e.s.FinalCore()
				res.AssumptionCoreSize = len(core)
				hAssumeCore.Observe(int64(len(core)))
				iterSpan.SetInt("core", int64(len(core)))
			}
			iterSpan.SetStr("outcome", st.String())
			iterSpan.End()
			return res, nil // Unsat under act is definitive for this grid
		}
		decoded := e.decode(sk)
		cex, ok := findMismatch(decoded, targetTab)
		if ok {
			res.Assignment = decoded
			iterSpan.SetStr("outcome", "verified")
			iterSpan.End()
			return res, nil
		}
		entry := cex
		if e.dual {
			entry = ^cex & (e.encTab.Size() - 1)
		}
		if sk.entries[entry] {
			iterSpan.SetStr("outcome", "stuck")
			iterSpan.End()
			return res, fmt.Errorf("encode: shared CEGAR failed to make progress on %v (entry %d)", g, entry)
		}
		iterSpan.SetStr("outcome", "counterexample")
		iterSpan.SetInt("cex", int64(entry))
		e.noteEntry(entry)
		e.stampEntry(sk, entry)
		iterSpan.End()
	}
}

// solveShared is SolveLMCegar's per-attempt hook into the pool.
func (p *SharedPool) solveShared(enc, target cube.Cover, targetTab *truth.Table,
	g lattice.Grid, dual bool, opt Options, deadline time.Time) (Result, error) {
	return p.engine(enc, dual, opt).solveGrid(target, targetTab, g, opt, deadline)
}

// Warm pre-loads counterexample knowledge discovered before the pool
// existed. inputs are truth-table indexes of the target where earlier
// (fresh-engine) candidates mismatched — the Result.CEXInputs trail. A
// search that starts on fresh engines and later switches to the pool
// would otherwise open cold engines and pay to rediscover exactly those
// entries; Warm notes them up front in both orientations' terms (the
// primal engine constrains f at the input itself, the dual engine f^D
// at its bitwise complement). Stamping into grid skeletons still goes
// through the transfer quality filter, so warming — like any entry
// transfer — only tightens the relaxation and cannot change answers.
func (p *SharedPool) Warm(target, targetDual cube.Cover, opt Options, inputs []uint64) {
	if len(inputs) == 0 {
		return
	}
	orients := []struct {
		enc  cube.Cover
		dual bool
	}{{target, false}, {targetDual, true}}
	for _, o := range orients {
		// Respect the orientation restriction: an engine the search will
		// never solve on has no use for the entries.
		if (opt.Mode == PrimalOnly && o.dual) || (opt.Mode == DualOnly && !o.dual) {
			continue
		}
		e := p.engine(o.enc, o.dual, opt)
		e.mu.Lock()
		mask := e.encTab.Size() - 1
		for _, in := range inputs {
			t := in & mask
			if o.dual {
				t = ^in & mask
			}
			e.noteEntry(t)
		}
		e.mu.Unlock()
	}
}
