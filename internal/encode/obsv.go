package encode

import (
	"fmt"

	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/sat"
)

// Registry handles for the LM-solve pipeline, resolved once (metric
// updates are single atomic adds on the hot path). Naming follows the
// janus_<pkg>_<name> scheme; *_total counters are monotone.
var (
	mCandidates   = obsv.Default.Counter("janus_encode_candidates_total")
	mCandSat      = obsv.Default.Counter("janus_encode_candidates_sat_total")
	mCandUnsat    = obsv.Default.Counter("janus_encode_candidates_unsat_total")
	mCandUnknown  = obsv.Default.Counter("janus_encode_candidates_unknown_total")
	mStructural   = obsv.Default.Counter("janus_encode_structural_refutes_total")
	mCegarIters   = obsv.Default.Counter("janus_encode_cegar_iters_total")
	mCegarEntries = obsv.Default.Counter("janus_encode_cegar_entries_total")
	mClausesAdded = obsv.Default.Counter("janus_encode_clauses_added_total")
	mClausesRebld = obsv.Default.Counter("janus_encode_clauses_rebuilt_total")
	// Shared assumption pool (SolveFirst): candidates answered on a
	// reused skeleton, counterexample-entry clauses transferred between
	// candidates, and the final-conflict assumption core sizes of Unsat
	// answers.
	mSharedReused   = obsv.Default.Counter("janus_encode_shared_reused_solvers_total")
	mSharedTransfer = obsv.Default.Counter("janus_encode_shared_transferred_cex_clauses_total")
	// Clause-quality filter: counterexample entries the transfer cap
	// declined to write, and learnt clauses pruned on grid switches.
	mSharedFiltered = obsv.Default.Counter("janus_encode_shared_transfer_filtered_total")
	mSharedPruned   = obsv.Default.Counter("janus_encode_shared_learnts_pruned_total")
	hAssumeCore     = obsv.Default.Histogram("janus_encode_assumption_core_size")
	mSolves         = obsv.Default.Counter("janus_sat_solves_total")
	mSolveNS        = obsv.Default.Counter("janus_sat_solve_ns_total")
	mConflicts      = obsv.Default.Counter("janus_sat_conflicts_total")
	mDecisions      = obsv.Default.Counter("janus_sat_decisions_total")
	mPropagations   = obsv.Default.Counter("janus_sat_propagations_total")
	mRestarts       = obsv.Default.Counter("janus_sat_restarts_total")
	mLearnts        = obsv.Default.Counter("janus_sat_learnts_total")
	mRemoved        = obsv.Default.Counter("janus_sat_removed_total")
	mReductions     = obsv.Default.Counter("janus_sat_db_reductions_total")
	mLearntDBGauge  = obsv.Default.Gauge("janus_sat_learnt_db_size")
	hLBD            = obsv.Default.Histogram("janus_sat_lbd")
	hConflicts      = obsv.Default.Histogram("janus_sat_conflicts_per_solve")
	// Attempts run ahead of their turn on engine copies (SolveFirst):
	// copies whose work the search adopted, copies it threw away because
	// an earlier attempt answered Sat (or failed, or the search stopped),
	// and the SAT conflicts those spent. Only adopted work reaches the
	// counters above.
	mOverlapAdopted   = obsv.Default.Counter("janus_encode_speculations_adopted_total")
	mOverlapDiscarded = obsv.Default.Counter("janus_encode_speculations_discarded_total")
	mOverlapConflicts = obsv.Default.Counter("janus_encode_speculation_discarded_conflicts_total")
)

// tally holds the registry updates of one LM attempt, and its Candidate
// span, until the attempt is settled. An attempt that ran in its turn
// commits as it settles; one that ran ahead on a copy commits only when
// the search adopts its work and otherwise discards, so the registry
// counts exactly the work a sequential search does.
type tally struct {
	cand *obsv.Span
	// ahead is, for an attempt run on a copy, how many grids past the
	// earliest unsettled attempt's grid it was when it started.
	ahead    int64
	res      Result // the attempt's result, set as it ends
	entries  int64  // truth-table entries written into skeletons
	hasCore  bool   // res.AssumptionCoreSize is a core the solver reported
	solves   int64
	solveNS  int64
	work     sat.Stats // summed over the attempt's Solve calls
	perSolve []int64   // conflicts of each Solve call
	lbd      [sat.LBDBuckets]int64
	learntDB int64
}

// commit folds the attempt into the registry and ends its Candidate span,
// stamped speculative=verdict when verdict is not empty.
func (t *tally) commit(verdict string) {
	r := t.res
	mCandidates.Inc()
	switch r.Status {
	case sat.Sat:
		mCandSat.Inc()
	case sat.Unsat:
		mCandUnsat.Inc()
	default:
		mCandUnknown.Inc()
	}
	mCegarIters.Add(int64(r.CegarIters))
	mCegarEntries.Add(t.entries)
	mClausesAdded.Add(int64(r.AddedClauses))
	mClausesRebld.Add(int64(r.RebuiltClauses))
	mSharedReused.Add(int64(r.ReusedSolvers))
	mSharedTransfer.Add(int64(r.TransferredCEXClauses))
	mSharedFiltered.Add(int64(r.TransferFiltered))
	mSharedPruned.Add(int64(r.PrunedLearnts))
	if t.hasCore {
		hAssumeCore.Observe(int64(r.AssumptionCoreSize))
	}
	mSolves.Add(t.solves)
	mSolveNS.Add(t.solveNS)
	mConflicts.Add(t.work.Conflicts)
	mDecisions.Add(t.work.Decisions)
	mPropagations.Add(t.work.Propagations)
	mRestarts.Add(t.work.Restarts)
	mLearnts.Add(t.work.Learnts)
	mRemoved.Add(t.work.Removed)
	mReductions.Add(t.work.Reductions)
	if t.solves > 0 {
		mLearntDBGauge.Set(t.learntDB)
	}
	for _, c := range t.perSolve {
		hConflicts.Observe(c)
	}
	for lbd, n := range t.lbd {
		hLBD.ObserveN(int64(lbd), n)
	}
	t.end(verdict)
}

// discard counts a thrown-away speculative attempt apart from the search's
// work and ends its Candidate span.
func (t *tally) discard() {
	mOverlapDiscarded.Inc()
	mOverlapConflicts.Add(t.work.Conflicts)
	t.end("discarded")
}

func (t *tally) end(verdict string) {
	if verdict != "" {
		t.cand.SetStr("speculative", verdict)
		t.cand.SetInt("ahead", t.ahead)
	}
	t.cand.End()
}

// startCandidate opens the Candidate(m×n,orient) span for one LM attempt,
// held by t until the attempt is settled, and installs the per-Solve
// observer on the solver: every Solve call feeds t and, when tracing, the
// current SatSolve span. The returned setSpan rebinds the span the
// observer writes into (the CEGAR loop points it at each iteration's
// SatSolve child).
func startCandidate(parent *obsv.Span, g lattice.Grid, dual bool, engine string, s *sat.Solver, t *tally) (cand *obsv.Span, setSpan func(*obsv.Span)) {
	cand = parent.Child("Candidate")
	cand.SetStr("grid", fmt.Sprintf("%dx%d", g.M, g.N))
	cand.SetStr("orient", orientName(dual))
	cand.SetStr("engine", engine)
	t.cand = cand

	var cur *obsv.Span
	s.SetObserver(func(ss sat.SolveStats) {
		recordSolve(cur, ss, t)
	})
	return cand, func(sp *obsv.Span) { cur = sp }
}

func orientName(dual bool) string {
	if dual {
		return "dual"
	}
	return "primal"
}

// recordSolve folds one Solve call's statistics into the attempt's tally
// and, when tracing, into its SatSolve span.
func recordSolve(sp *obsv.Span, ss sat.SolveStats, t *tally) {
	t.solves++
	t.solveNS += ss.Dur.Nanoseconds()
	t.work = t.work.Add(ss.Delta)
	t.learntDB = int64(ss.LearntDB)
	t.perSolve = append(t.perSolve, ss.Delta.Conflicts)
	for lbd, n := range ss.LBDHist {
		t.lbd[lbd] += n
	}

	sp.SetStr("status", ss.Status.String())
	sp.SetInt("conflicts", ss.Delta.Conflicts)
	sp.SetInt("decisions", ss.Delta.Decisions)
	sp.SetInt("propagations", ss.Delta.Propagations)
	sp.SetInt("restarts", ss.Delta.Restarts)
	sp.SetInt("learnts", ss.Delta.Learnts)
	sp.SetInt("lbd_sum", ss.Delta.LBDSum)
	sp.SetInt("db_reductions", ss.Delta.Reductions)
	sp.SetInt("learnt_db", int64(ss.LearntDB))
	sp.SetInt("conflicts_total", ss.Total.Conflicts)
	sp.SetInt("propagations_total", ss.Total.Propagations)
}

// noteStatus records one finished LM attempt's result in its tally and
// stamps the Candidate span with the result-level counters.
func noteStatus(cand *obsv.Span, r Result, t *tally) {
	t.res = r
	cand.SetStr("status", r.Status.String())
	cand.SetInt("vars", int64(r.Vars))
	cand.SetInt("clauses", int64(r.Clauses))
	cand.SetInt("clauses_added", int64(r.AddedClauses))
	cand.SetInt("cegar_iters", int64(r.CegarIters))
}
