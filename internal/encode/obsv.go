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
	// Shared assumption pool (SolveLMCegar): candidates answered on a
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
)

// startCandidate opens the Candidate(m×n,orient) span for one LM attempt
// and installs the per-Solve observer on the solver: every Solve call
// feeds the registry and, when tracing, the current SatSolve span. The
// returned setSpan rebinds the span the observer writes into (the CEGAR
// loop points it at each iteration's SatSolve child).
func startCandidate(parent *obsv.Span, g lattice.Grid, dual bool, engine string, s *sat.Solver) (cand *obsv.Span, setSpan func(*obsv.Span)) {
	cand = parent.Child("Candidate")
	cand.SetStr("grid", fmt.Sprintf("%dx%d", g.M, g.N))
	cand.SetStr("orient", orientName(dual))
	cand.SetStr("engine", engine)
	mCandidates.Inc()

	var cur *obsv.Span
	s.SetObserver(func(ss sat.SolveStats) {
		recordSolve(cur, ss)
	})
	return cand, func(sp *obsv.Span) { cur = sp }
}

func orientName(dual bool) string {
	if dual {
		return "dual"
	}
	return "primal"
}

// recordSolve folds one Solve call's statistics into the registry and,
// when tracing, into its SatSolve span.
func recordSolve(sp *obsv.Span, ss sat.SolveStats) {
	mSolves.Inc()
	mSolveNS.Add(ss.Dur.Nanoseconds())
	mConflicts.Add(ss.Delta.Conflicts)
	mDecisions.Add(ss.Delta.Decisions)
	mPropagations.Add(ss.Delta.Propagations)
	mRestarts.Add(ss.Delta.Restarts)
	mLearnts.Add(ss.Delta.Learnts)
	mRemoved.Add(ss.Delta.Removed)
	mReductions.Add(ss.Delta.Reductions)
	mLearntDBGauge.Set(int64(ss.LearntDB))
	hConflicts.Observe(ss.Delta.Conflicts)
	for lbd, n := range ss.LBDHist {
		hLBD.ObserveN(int64(lbd), n)
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

// noteStatus counts one finished LM attempt by outcome and stamps the
// Candidate span with the result-level counters.
func noteStatus(cand *obsv.Span, r Result) {
	switch r.Status {
	case sat.Sat:
		mCandSat.Inc()
	case sat.Unsat:
		mCandUnsat.Inc()
	default:
		mCandUnknown.Inc()
	}
	cand.SetStr("status", r.Status.String())
	cand.SetInt("vars", int64(r.Vars))
	cand.SetInt("clauses", int64(r.Clauses))
	cand.SetInt("clauses_added", int64(r.AddedClauses))
	cand.SetInt("cegar_iters", int64(r.CegarIters))
}
