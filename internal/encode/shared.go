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
// counterexample entries are grid-independent knowledge and are written
// into every skeleton, so a truth-table point one candidate stumbled over
// never has to be rediscovered by another.
//
// A pool is safe for concurrent use; candidates that share an engine
// serialize on it (distinct orientations — and distinct covers, as in the
// DS sub-syntheses — still run in parallel). Candidates also share the
// engine's learnt clauses, so under a conflict budget the answers depend
// on the order concurrent candidates reach it.
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
// the option fields that change the generated formula.
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
func (e *sharedEngine) skeleton(g lattice.Grid, limit int) (sk *gridSkeleton, reused bool, transferred, filtered int) {
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
	for _, t := range keep {
		e.addEntry(sk, t)
	}
	return sk, reused, sk.clauses - before, filtered
}

// addEntry writes one truth-table entry of the encoded function into a
// grid's skeleton.
func (e *sharedEngine) addEntry(sk *gridSkeleton, t uint64) {
	sk.enc.entry(t, e.encTab.Get(t), e.opt)
	sk.entries[t] = true
	mCegarEntries.Inc()
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
// engine encodes enc, which is f or f^D depending on orientation.
func (e *sharedEngine) solveGrid(target cube.Cover, targetTab *truth.Table,
	g lattice.Grid, opt Options, deadline time.Time) (res Result, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	clausesBefore := 0
	if prev, ok := e.grids[g]; ok {
		clausesBefore = prev.clauses
	}
	// Grid switch: before writing the new candidate, shed the learnt
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
		res.AddedClauses = sk.clauses - clausesBefore
		mClausesAdded.Add(int64(res.AddedClauses))
		mClausesRebld.Add(int64(res.RebuiltClauses))
		noteStatus(cand, res)
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
				hAssumeCore.Observe(int64(len(core)))
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
		e.addEntry(sk, entry)
		iterSpan.End()
	}
}
