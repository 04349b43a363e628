// Package encode formulates the lattice mapping (LM) problem as SAT,
// following Section III-A of the paper.
//
// Given a target function f (ISOP) and an m×n lattice, the encoding asks
// for an assignment of target literals and constants to the lattice's
// switch control inputs such that the lattice's top–bottom connectivity
// function equals f. Mapping variables pick one target literal per switch;
// per-truth-table-entry circuit variables carry the switch states; off
// entries contribute one clause per lattice path, on entries contribute a
// Tseitin OR over path variables plus the paper's two connectivity facts.
//
// The dual formulation — realizing f^D with the 8-connected left–right
// paths — is built symmetrically, and the problem with the smaller
// variables × clauses complexity is handed to the SAT solver. A model of
// the dual problem converts to a primal lattice implementation by swapping
// the constants 0 and 1.
//
// One clause generator (gridEnc) writes every formulation into a sink.
// SolveLM and BuildCNF give it a cnf.Builder and constrain all 2^N
// entries up front: the paper's monolithic formulation. SolveLMCegar gives
// it a SharedPool grid skeleton and adds entries lazily, one
// counterexample at a time, on one persistent assumption-based solver per
// (cover, orientation); that is the engine the synthesis search runs.
package encode

import (
	"errors"
	"fmt"

	"github.com/lattice-tools/janus/internal/cnf"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/sat"
)

// Mode selects which of the two LM formulations to use.
type Mode int

const (
	// Auto picks the formulation with the smaller vars×clauses complexity
	// (the paper's rule).
	Auto Mode = iota
	// PrimalOnly always uses the top–bottom formulation.
	PrimalOnly
	// DualOnly always uses the left–right dual formulation.
	DualOnly
)

// Options tunes the LM encoding. The zero value enables everything the
// paper describes with no SAT budget.
type Options struct {
	Mode Mode
	// DisableFacts drops the two on-entry connectivity facts (ablation).
	DisableFacts bool
	// DisableDegree drops the degree-matching and long-product constraints
	// (ablation).
	DisableDegree bool
	// LongProductThreshold is the paper's empirical literal-count cutoff
	// above which a product must be realized by an equally long lattice
	// path. Zero means the default of 5.
	LongProductThreshold int
	// DisableSymmetry drops the mirror symmetry-breaking constraints
	// (ablation). Reversing the rows or the columns of a lattice preserves
	// its plate-to-plate connectivity function, so the encoding may demand
	// the corner-minimal representative of each solution orbit.
	DisableSymmetry bool
	// FullTL maps switches over every literal of every variable instead of
	// only the literals appearing in the ISOP, as the exact method of
	// Gange et al. effectively allows.
	FullTL bool
	// StrictProducts forces every target product to be realized by a path
	// whose cells carry only that product's literals (plus constant 1) —
	// the restriction the approximate method of Gange et al. imposes.
	StrictProducts bool
	// Shared is the pool SolveLMCegar solves on: one persistent
	// assumption-based solver per (cover, orientation), shared by every
	// candidate grid the caller probes. Skeletons are guarded by
	// activation literals and counterexample entries transfer between
	// candidates (see SharedPool). Nil gives each SolveLMCegar call a pool
	// of its own, which then holds one grid. SolveLM and BuildCNF ignore
	// it.
	Shared *SharedPool
	// CEXTransferLimit caps how many already-known counterexample entries
	// the pool transfers into a grid skeleton per solve, most
	// recent first; older entries are dropped and rediscovered on demand.
	// The filter is speed-only: a skeleton holding fewer entries is a
	// coarser relaxation of the same LM problem, so Unsat stays definitive
	// and Sat is still verified by simulation — answers never change, only
	// how much stale clause freight a shallow candidate pays for. Zero
	// means DefaultCEXTransferLimit; negative disables the filter
	// (transfer everything). SolveLM and BuildCNF ignore it.
	CEXTransferLimit int
	// SharedLearntLBD and SharedLearntSize gate the learnt clauses a
	// pool engine keeps when it switches to a different candidate grid:
	// learnts with LBD above SharedLearntLBD or more than SharedLearntSize
	// literals are pruned (sat.Solver.PruneLearnts), shedding watch-list
	// freight that mostly mentions the previous grid's activation literal.
	// Zero means the defaults; negative keeps every learnt clause.
	// SolveLM and BuildCNF ignore them.
	SharedLearntLBD  int
	SharedLearntSize int
	// Limits bounds each SAT call.
	Limits sat.Limits
	// Span, when non-nil, is the parent trace span under which this LM
	// solve opens its Candidate(m×n,orient) spans; nil disables tracing
	// for the call at zero cost (see internal/obsv).
	Span *obsv.Span
}

func (o Options) longThreshold() int {
	if o.LongProductThreshold <= 0 {
		return 5
	}
	return o.LongProductThreshold
}

// Defaults of the pool's clause-quality filter. The transfer
// limit keeps roughly the CEGAR working set of one candidate (a few dozen
// entries converge on the paper's instances); the learnt gates mirror the
// "keep the good half" spirit of the solver's own reduceDB but act at
// grid-switch time, when the learnt database is most biased toward the
// previous grid.
const (
	DefaultCEXTransferLimit = 24
	DefaultSharedLearntLBD  = 6
	DefaultSharedLearntSize = 30
)

// cexTransferLimit resolves the per-solve entry-transfer cap; -1 means
// unlimited.
func (o Options) cexTransferLimit() int {
	if o.CEXTransferLimit == 0 {
		return DefaultCEXTransferLimit
	}
	if o.CEXTransferLimit < 0 {
		return -1
	}
	return o.CEXTransferLimit
}

// learntPrune resolves the grid-switch learnt gates; on is false when the
// caller asked to keep everything.
func (o Options) learntPrune() (maxLBD int32, maxSize int, on bool) {
	if o.SharedLearntLBD < 0 || o.SharedLearntSize < 0 {
		return 0, 0, false
	}
	maxLBD = int32(o.SharedLearntLBD)
	if maxLBD == 0 {
		maxLBD = DefaultSharedLearntLBD
	}
	maxSize = o.SharedLearntSize
	if maxSize == 0 {
		maxSize = DefaultSharedLearntSize
	}
	return maxLBD, maxSize, true
}

// Result reports the outcome of an LM solve.
type Result struct {
	Status     sat.Status
	Assignment *lattice.Assignment // non-nil iff Status == Sat
	UsedDual   bool                // dual formulation was chosen
	Vars       int
	Clauses    int
	SolverStat sat.Stats
	Structural bool // true when the structural check already refuted

	// CegarIters counts CEGAR refinement iterations (SAT calls); zero for
	// the monolithic formulation.
	CegarIters int
	// AddedClauses counts the clauses this solve handed to the SAT solver.
	// For the pool that is the probed grid's skeleton on first use, the
	// counterexample entries transferred into it, and the entries its own
	// refinement discovered; every clause enters the persistent solver
	// once. For the monolithic formulation it equals Clauses.
	AddedClauses int
	// RebuiltClauses is the clause volume a rebuild-per-iteration CEGAR
	// engine would have added: the sum over iterations of the grid's
	// formula size at that iteration. AddedClauses/RebuiltClauses is the
	// incremental saving; the two are equal for monolithic solves.
	RebuiltClauses int

	// ReusedSolvers is 1 when the pool answered this candidate on a grid
	// skeleton an earlier solve had already written.
	ReusedSolvers int
	// TransferredCEXClauses is the portion of AddedClauses that encodes
	// counterexample entries discovered by *other* candidates — knowledge
	// this solve got for free.
	TransferredCEXClauses int
	// TransferFiltered counts the already-known counterexample entries the
	// quality filter declined to transfer into this solve's skeleton (the
	// drop count next to TransferredCEXClauses' kept clauses); dropped
	// entries are rediscovered by refinement if they matter.
	TransferFiltered int
	// PrunedLearnts counts the learnt clauses the pool pruned from its
	// solver (LBD/size gate) when this solve switched it to a different
	// candidate grid.
	PrunedLearnts int
	// AssumptionCoreSize is the size of the final-conflict assumption
	// core of the last Unsat answer (zero for the monolithic formulation).
	AssumptionCoreSize int
}

// MaxInputs bounds the target function size for the truth-table-based
// encoding.
const MaxInputs = 16

// maxFormulaWork caps the estimated literal volume per formulation
// (paths × path length × truth-table entries). Wide lattices can have
// millions of (dual) paths, and materializing one clause per path per
// entry — each about a path long — would exhaust memory. A formulation
// over the cap is skipped (and the LM answer degrades to Unknown when
// both are), which the search treats like a SAT timeout.
const maxFormulaWork = 6 << 20

// formulaWork estimates the encoding effort of one formulation with a
// bounded path count; results above maxFormulaWork mean "too big".
func formulaWork(g lattice.Grid, dual bool, nInputs int) int64 {
	avgLen := int64(g.M + g.N/2)
	if dual {
		avgLen = int64(g.N + g.M/2)
	}
	if avgLen < 1 {
		avgLen = 1
	}
	pathLimit := int64(maxFormulaWork)/avgLen>>uint(nInputs) + 1
	paths := g.CountPathsLimited(pathLimit, dual)
	return paths * avgLen * (1 << uint(nInputs))
}

// ErrTooManyInputs is returned when the target has more inputs than the
// encoding supports.
var ErrTooManyInputs = errors.New("encode: target has too many inputs")

// targetLit is one element of the TL set: a literal of the target (as a
// lattice.Entry) or a constant.
type targetLit = lattice.Entry

// buildTL collects the TL set: every literal appearing in the ISOP target
// plus the constants 0 and 1 (or all 2N literals when full is set).
func buildTL(target cube.Cover, full bool) []targetLit {
	tl := []targetLit{{Kind: lattice.Const0}, {Kind: lattice.Const1}}
	pos, neg := target.LiteralSet()
	if full {
		pos = (1 << uint(target.N)) - 1
		neg = pos
	}
	for v := 0; v < target.N; v++ {
		bit := uint64(1) << uint(v)
		if pos&bit != 0 {
			tl = append(tl, targetLit{Kind: lattice.PosVar, Var: v})
		}
		if neg&bit != 0 {
			tl = append(tl, targetLit{Kind: lattice.NegVar, Var: v})
		}
	}
	return tl
}

// StructuralCheck performs the paper's quick refutation: the lattice must
// offer at least as many products as the target, a product at least as
// long as every target product, and the same must hold for the duals.
// Both tests use bounded path enumeration, so the check never
// materializes a large lattice function.
func StructuralCheck(target, targetDual cube.Cover, g lattice.Grid) bool {
	return structuralHalf(target, g, false) && structuralHalf(targetDual, g, true)
}

func structuralHalf(target cube.Cover, g lattice.Grid, dual bool) bool {
	need := int64(len(target.Cubes))
	if g.CountPathsLimited(need, dual) < need {
		return false
	}
	return g.HasPathOfLen(target.Degree(), dual)
}

// build writes the monolithic formulation of realizing target on the
// grid's primal (dual=false) or dual (dual=true) path structure: the
// skeleton plus all 2^N truth-table entries.
func build(target cube.Cover, g lattice.Grid, dual bool, opt Options) (*cnf.Builder, *gridEnc) {
	b := cnf.NewBuilder()
	e := newGridEnc(builderSink{b}, target, g, dual, buildTL(target, opt.FullTL), opt)
	tab := memo.TableOf(target)
	for t := uint64(0); t < tab.Size(); t++ {
		e.entry(t, tab.Get(t), opt)
	}
	return b, e
}

// BuildCNF constructs the LM formulation the solver would run (choosing
// primal or dual per the options) without solving it, for inspection or
// DIMACS export. The second result reports whether the dual formulation
// was chosen.
func BuildCNF(target, targetDual cube.Cover, g lattice.Grid, opt Options) (*cnf.Builder, bool, error) {
	if target.N > MaxInputs {
		return nil, false, ErrTooManyInputs
	}
	pw := formulaWork(g, false, target.N)
	dw := formulaWork(g, true, target.N)
	useDual := false
	switch opt.Mode {
	case PrimalOnly:
	case DualOnly:
		useDual = true
	default:
		useDual = dw < pw
	}
	w := pw
	if useDual {
		w = dw
	}
	if w > maxFormulaWork {
		return nil, useDual, errors.New("encode: formulation too large to materialize")
	}
	if useDual {
		b, _ := build(targetDual, g, true, opt)
		return b, true, nil
	}
	b, _ := build(target, g, false, opt)
	return b, false, nil
}

// SolveLM decides whether target (with precomputed dual targetDual, both
// in ISOP form over the same variables) can be realized on the grid, and
// returns a verified lattice assignment when it can. It solves the
// paper's monolithic formulation, every truth-table entry up front, on a
// fresh solver; the search runs SolveLMCegar instead.
func SolveLM(target, targetDual cube.Cover, g lattice.Grid, opt Options) (Result, error) {
	if target.N > MaxInputs {
		return Result{}, ErrTooManyInputs
	}
	// Trivial constants.
	if target.IsZero() || target.IsOne() {
		a := lattice.NewAssignment(g)
		kind := lattice.Const0
		if target.IsOne() {
			kind = lattice.Const1
		}
		for i := range a.Entries {
			a.Entries[i] = targetLit{Kind: kind}
		}
		return Result{Status: sat.Sat, Assignment: a}, nil
	}
	if !StructuralCheck(target, targetDual, g) {
		mStructural.Inc()
		return Result{Status: sat.Unsat, Structural: true}, nil
	}

	// Decide which formulations to attempt and in what order. The paper
	// compares the built problems' vars × clauses; we order by an
	// equivalent path-count estimate instead so that the losing
	// formulation is never materialized (wide lattices can have millions
	// of dual paths) and oversized formulations are skipped outright.
	type attempt struct {
		cover cube.Cover
		dual  bool
	}
	var attempts []attempt
	oversized := false
	switch opt.Mode {
	case PrimalOnly:
		if formulaWork(g, false, target.N) > maxFormulaWork {
			oversized = true
		} else {
			attempts = []attempt{{target, false}}
		}
	case DualOnly:
		if formulaWork(g, true, target.N) > maxFormulaWork {
			oversized = true
		} else {
			attempts = []attempt{{targetDual, true}}
		}
	default:
		pw := formulaWork(g, false, target.N)
		dw := formulaWork(g, true, target.N)
		if dw < pw {
			attempts = []attempt{{targetDual, true}, {target, false}}
		} else {
			attempts = []attempt{{target, false}, {targetDual, true}}
		}
		kept := attempts[:0]
		for _, a := range attempts {
			w := pw
			if a.dual {
				w = dw
			}
			if w > maxFormulaWork {
				oversized = true
				continue
			}
			kept = append(kept, a)
		}
		attempts = kept
	}

	var res Result
	var chosen *gridEnc
	var s *sat.Solver
	sawUnknown := oversized
	for _, a := range attempts {
		s = nil // release the previous attempt's solver before building
		b, e := build(a.cover, g, a.dual, opt)
		s = b.SolverFrom()
		b.ReleaseClauses() // the solver holds its own copy now
		cand, setSpan := startCandidate(opt.Span, g, a.dual, "monolithic", s)
		solveSpan := cand.Child("SatSolve")
		setSpan(solveSpan)
		st := s.Solve(opt.Limits)
		solveSpan.End()
		chosen = e
		res = Result{
			Status:         st,
			UsedDual:       a.dual,
			Vars:           b.NumVars(),
			Clauses:        b.NumClauses(),
			SolverStat:     s.Stats(),
			AddedClauses:   b.NumClauses(),
			RebuiltClauses: b.NumClauses(),
		}
		mClausesAdded.Add(int64(res.AddedClauses))
		mClausesRebld.Add(int64(res.RebuiltClauses))
		noteStatus(cand, res)
		cand.End()
		if st == sat.Sat {
			break
		}
		if st == sat.Unknown {
			sawUnknown = true
		}
	}
	if res.Status != sat.Sat {
		if sawUnknown {
			res.Status = sat.Unknown
		}
		return res, nil
	}
	// Both formulations decode to an assignment that must implement f on
	// the top–bottom structure (the dual decode swaps constants, which by
	// the duality theorem converts an f^D left–right realization into an
	// f top–bottom realization). Verify against the physical ground truth
	// (the memo-cached target table: the search verifies against the same
	// target for every candidate grid).
	a := chosen.decode(s)
	if !a.Table(target.N).Equal(memo.TableOf(target)) {
		return res, fmt.Errorf("encode: model fails verification on %v (dual=%v)", g, chosen.dual)
	}
	res.Assignment = a
	return res, nil
}
