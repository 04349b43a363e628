package encode

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
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
// counterexample entries are grid-independent knowledge and are written
// into every skeleton, so a truth-table point one candidate stumbled over
// never has to be rediscovered by another.
//
// A pool is safe for concurrent use, but it is meant to have one user: the
// synthesis that opened it, whose SolveFirst calls may run a later
// attempt beside the earliest on a copy of that attempt's engine (see
// SolveFirst). Copies are taken while nothing else uses the engine; a
// second synthesis on the same pool would make engine states, and so the
// answers under a conflict budget, depend on scheduling.
type SharedPool struct {
	mu      sync.Mutex
	engines map[poolKey]*sharedEngine
	filter  filter // copied into every engine the pool makes
}

// filter is the pool's clause-quality filter. It is speed-only: a
// skeleton holding fewer entries is a coarser relaxation of the same LM
// problem, so Unsat stays definitive and Sat is still verified by
// simulation, and a pruned learnt clause is implied by the formula.
// Answers never change, only how much stale clause freight a candidate
// pays for.
type filter struct {
	// transfer caps how many already-known counterexample entries enter a
	// grid skeleton per solve, most recent first; older entries are
	// dropped and rediscovered on demand. Negative transfers every entry.
	transfer int
	// On a switch to a different candidate grid, learnt clauses with an
	// LBD above lbd or more than size literals are pruned
	// (sat.Solver.PruneLearnts): they mostly mention the previous grid's
	// activation literal. An lbd of 0 keeps every learnt clause.
	lbd  int32
	size int
}

// defaultFilter keeps roughly the CEGAR working set of one candidate (a
// few dozen entries converge on the paper's instances); the learnt gates
// mirror the "keep the good half" spirit of the solver's own reduceDB but
// act at grid-switch time, when the learnt database is most biased
// toward the previous grid.
var defaultFilter = filter{transfer: 24, lbd: 6, size: 30}

// NewSharedPool returns an empty pool. One pool per synthesis is the
// intended scope: the engines hold solvers whose size grows with every
// grid skeleton, so the pool should live exactly as long as the search
// that amortizes them, and the code that opened it releases it.
func NewSharedPool() *SharedPool {
	return &SharedPool{engines: make(map[poolKey]*sharedEngine), filter: defaultFilter}
}

// reuseWords bounds the solvers Release hands back for reuse by the words
// of clause arena they hold (sat.Solver.ArenaWords). A reused solver keeps
// all its storage while it waits in spareSolvers, so only small ones go
// back: they are the many short-lived solvers of small functions, whose
// set-up cost reuse saves, while the rare large one would hold its
// storage for nothing.
const reuseWords = 1 << 16

// spareSolvers holds reset solvers for the next engines to take, across
// pools and syntheses; reusedSolvers counts the engines that took one.
var (
	spareSolvers  sync.Pool
	reusedSolvers atomic.Int64
)

// Release ends the pool's use: every engine's solver is reset and, when it
// is small enough, handed back for the engines of later pools to reuse,
// and the pool is left empty. Only the code that opened the pool calls
// it, once every search on the pool has returned; a reset solver answers
// exactly as a new one would, so reuse never changes an answer.
func (p *SharedPool) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.engines {
		if e.s.ArenaWords() <= reuseWords {
			e.s.Reset()
			spareSolvers.Put(e.s)
		}
	}
	clear(p.engines)
}

// newSolver returns a solver as sat.New(0) makes it, a released one when
// there is one.
func newSolver() *sat.Solver {
	if s, ok := spareSolvers.Get().(*sat.Solver); ok {
		reusedSolvers.Add(1)
		return s
	}
	return sat.New(0)
}

// poolKey identifies one engine: the encoded cover, the orientation, and
// the option fields that change the generated formula.
type poolKey struct {
	cover    string
	dual     bool
	facts    bool
	degree   bool
	symmetry bool
	fullTL   bool
	strict   bool
}

func keyOf(enc cube.Cover, dual bool, opt Options) poolKey {
	return poolKey{
		cover:    memo.CoverKey(enc),
		dual:     dual,
		facts:    !opt.DisableFacts,
		degree:   !opt.DisableDegree,
		symmetry: !opt.DisableSymmetry,
		fullTL:   opt.FullTL,
		strict:   opt.StrictProducts,
	}
}

// engine returns the pool's engine for key k of (enc, dual), creating it
// on first use. The caller must hold the returned engine's lock while
// solving.
func (p *SharedPool) engine(k poolKey, enc cube.Cover, dual bool, opt Options) *sharedEngine {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.engines[k]; ok {
		return e
	}
	e := newSharedEngine(enc, dual, opt, p.filter)
	p.engines[k] = e
	return e
}

// copyOf returns a private engine for key k of (enc, dual) to solve on
// beside the pool's user: a clone of the pool's engine, or a new engine
// the pool does not hold when it has none yet.
func (p *SharedPool) copyOf(k poolKey, enc cube.Cover, dual bool, opt Options) *sharedEngine {
	p.mu.Lock()
	e, ok := p.engines[k]
	p.mu.Unlock()
	if !ok {
		return newSharedEngine(enc, dual, opt, p.filter)
	}
	return e.clone()
}

// install makes e the pool's engine for k, in place of the state it was
// copied from.
func (p *SharedPool) install(k poolKey, e *sharedEngine) {
	p.mu.Lock()
	p.engines[k] = e
	p.mu.Unlock()
}

// newSharedEngine returns an engine for (enc, dual) holding no grid yet.
func newSharedEngine(enc cube.Cover, dual bool, opt Options, f filter) *sharedEngine {
	e := &sharedEngine{
		s:      newSolver(),
		enc:    enc,
		encTab: memo.TableOf(enc),
		tl:     buildTL(enc, opt.FullTL),
		dual:   dual,
		opt:    opt,
		filter: f,
		grids:  make(map[lattice.Grid]*gridSkeleton),
	}
	// Seed the shared entry set with one on- and one off-entry of the
	// encoded function, which give the abstraction immediate traction:
	// every skeleton receives them before its first solve.
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
	return e
}

// clone returns an independent copy of the engine: a clone of its solver,
// and of every skeleton and entry set over that clone, so that solving on
// the copy does exactly what solving on the engine would. The cover, its
// table, the TL set, the path lists and the mapping variables are
// read-only and shared.
func (e *sharedEngine) clone() *sharedEngine {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := &sharedEngine{
		s:          e.s.Clone(),
		enc:        e.enc,
		encTab:     e.encTab,
		tl:         e.tl,
		dual:       e.dual,
		opt:        e.opt,
		filter:     e.filter,
		grids:      make(map[lattice.Grid]*gridSkeleton, len(e.grids)),
		entryOrder: slices.Clone(e.entryOrder),
		entrySet:   maps.Clone(e.entrySet),
		lastGrid:   e.lastGrid,
		haveLast:   e.haveLast,
	}
	for g, sk := range e.grids {
		csk := &gridSkeleton{s: c.s, act: sk.act, entries: maps.Clone(sk.entries), clauses: sk.clauses}
		enc := *sk.enc
		enc.out, enc.buf = csk, nil
		csk.enc = &enc
		c.grids[g] = csk
	}
	return c
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
	filter filter

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

// gridSkeleton is one grid's slice of the shared formula. It is the sink
// the generator writes that grid into: straight into the engine's solver,
// with the grid's activation literal guarding every forcing clause.
type gridSkeleton struct {
	enc     *gridEnc
	s       *sat.Solver
	act     sat.Lit // activation literal guarding the skeleton
	entries map[uint64]bool
	clauses int       // clauses belonging to this grid, guards included
	guard   []sat.Lit // scratch for guarded clauses
}

func (sk *gridSkeleton) newVar() sat.Lit { return sat.MkLit(sk.s.AddVar(), false) }

func (sk *gridSkeleton) add(lits ...sat.Lit) {
	sk.s.AddClause(lits...)
	sk.clauses++
}

// force adds (¬act ∨ C). Only clauses that force something positive about
// the grid need the guard: every other clause of a skeleton is satisfied
// by the all-false assignment of its own variables, so it can stay
// unguarded (cheaper to propagate, and binary clauses stay binary). That
// is what lets an entry, once added, keep constraining its grid across
// later activations, and lets entry knowledge transfer between grids.
func (sk *gridSkeleton) force(lits ...sat.Lit) {
	sk.guard = append(append(sk.guard[:0], sk.act.Not()), lits...)
	sk.add(sk.guard...)
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

// skeleton returns the grid's slice of the formula, writing it on first
// use, and brings its entry set up to date with the shared knowledge —
// bounded by the transfer quality filter: at most limit of the missing
// entries transfer in, most recent first (the search frontier's
// discoveries; a negative limit transfers everything). Returns the
// skeleton, whether it was reused, the clause count of the transferred
// entries, and how many entries the filter dropped. Dropping is
// speed-only: the skeleton stays a relaxation of the full LM problem, so
// Unsat remains definitive and a dropped entry that matters is
// rediscovered by this candidate's own refinement.
func (e *sharedEngine) skeleton(g lattice.Grid, limit int, t *tally) (sk *gridSkeleton, reused bool, transferred, filtered int) {
	sk, reused = e.grids[g]
	if !reused {
		sk = &gridSkeleton{s: e.s, entries: make(map[uint64]bool)}
		sk.act = sk.newVar()
		sk.enc = newGridEnc(sk, e.enc, g, e.dual, e.tl, e.opt)
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
	for _, entry := range keep {
		e.addEntry(sk, entry, t)
	}
	return sk, reused, sk.clauses - before, filtered
}

// addEntry writes truth-table entry tt of the encoded function into a
// grid's skeleton.
func (e *sharedEngine) addEntry(sk *gridSkeleton, tt uint64, t *tally) {
	sk.enc.entry(tt, e.encTab.Get(tt), e.opt)
	sk.entries[tt] = true
	t.entries++
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

// solveGrid runs the counterexample-guided refinement for one candidate
// grid on the engine's solver; it is the only refinement loop. target and
// targetTab describe f (what the decoded assignment must implement); the
// engine encodes enc, which is f or f^D depending on orientation. The
// attempt's registry updates and its Candidate span go to t, which the
// caller settles.
func (e *sharedEngine) solveGrid(target cube.Cover, targetTab *truth.Table,
	g lattice.Grid, opt Options, deadline time.Time, t *tally) (res Result, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	clausesBefore := 0
	if prev, ok := e.grids[g]; ok {
		clausesBefore = prev.clauses
	}
	// Grid switch: before writing the new candidate, shed the learnt
	// clauses whose quality says they mostly served the previous one.
	pruned := 0
	if e.haveLast && e.lastGrid != g && e.filter.lbd > 0 {
		pruned = e.s.PruneLearnts(e.filter.lbd, e.filter.size)
	}
	e.lastGrid, e.haveLast = g, true

	sk, reused, transferred, filtered := e.skeleton(g, e.filter.transfer, t)
	res = Result{
		UsedDual:              e.dual,
		TransferredCEXClauses: transferred,
		TransferFiltered:      filtered,
		PrunedLearnts:         pruned,
	}
	if reused {
		res.ReusedSolvers = 1
	}

	cand, setSpan := startCandidate(opt.Span, g, e.dual, "shared", e.s, t)
	defer func() {
		res.AddedClauses = sk.clauses - clausesBefore
		noteStatus(cand, res, t)
		cand.SetInt("transferred_cex_clauses", int64(transferred))
		cand.SetInt("transfer_filtered", int64(filtered))
		cand.SetInt("learnts_pruned", int64(pruned))
		cand.SetInt("reused", int64(res.ReusedSolvers))
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

		lims := opt.Limits
		if lims.MaxConflicts > 0 {
			// Relative to the conflicts the shared solver has already spent
			// (across every candidate and refinement).
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
				t.hasCore = true
				iterSpan.SetInt("core", int64(len(core)))
			}
			iterSpan.SetStr("outcome", st.String())
			iterSpan.End()
			return res, nil // Unsat under act is definitive for this grid
		}
		// Verify the candidate against the real target by simulation.
		decoded := sk.enc.decode(e.s)
		cex, ok := findMismatch(decoded, targetTab)
		if ok {
			res.Assignment = decoded
			iterSpan.SetStr("outcome", "verified")
			iterSpan.End()
			return res, nil
		}
		// Translate the mismatching input of f into an entry of the encoded
		// function: the dual orientation constrains f^D, whose entry t
		// corresponds to evaluating f at ¬t.
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
		e.addEntry(sk, entry, t)
		iterSpan.End()
	}
}
