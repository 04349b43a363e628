package encode

import (
	"time"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/sat"
	"github.com/lattice-tools/janus/internal/truth"
)

// SolveLMCegar decides the LM problem by counterexample-guided
// abstraction refinement, the lazy view of the exact method's quantified
// formulation: ∃ mapping ∀ inputs (lattice = f).
//
// Instead of constraining all 2^N truth-table entries up front, the
// abstraction starts from a small seed, a candidate mapping is decoded
// and *simulated* against the full truth table (cheap — one BFS per
// point), and any mismatching input becomes a new constrained entry. An
// UNSAT abstraction proves the full problem UNSAT because the
// abstraction is a relaxation; a verified candidate is a genuine
// solution. Each refinement adds at least one new entry, so the loop
// terminates. On the paper's instances the loop typically converges
// after a few dozen entries instead of the full 2^N.
//
// The loop runs on opt.Shared, whose engines keep one persistent
// assumption-based solver per (cover, orientation) across every grid the
// caller probes (see SharedPool). Without a pool the call opens one of its
// own, which then holds this one grid.
func SolveLMCegar(target, targetDual cube.Cover, g lattice.Grid, opt Options) (Result, error) {
	if target.N > MaxInputs {
		return Result{}, ErrTooManyInputs
	}
	if target.IsZero() || target.IsOne() {
		return SolveLM(target, targetDual, g, opt)
	}
	if !StructuralCheck(target, targetDual, g) {
		mStructural.Inc()
		return Result{Status: sat.Unsat, Structural: true}, nil
	}

	// Orientation choice: per-entry work is proportional to the path
	// count, so prefer the sparser structure; skip oversized ones (the
	// CEGAR loop can afford more than the monolithic cap because it only
	// materializes the entries it needs, but the path list itself must
	// still fit).
	const maxCegarPaths = 200000
	primal := cegarAttempt{target, false, g.CountPathsLimited(maxCegarPaths, false)}
	dual := cegarAttempt{targetDual, true, g.CountPathsLimited(maxCegarPaths, true)}
	order := []cegarAttempt{primal, dual}
	switch {
	case opt.Mode == PrimalOnly:
		order = order[:1]
	case opt.Mode == DualOnly:
		order = order[1:]
	case dual.paths < primal.paths:
		order = []cegarAttempt{dual, primal}
	}
	var attempts []cegarAttempt
	for _, a := range order {
		if a.paths <= maxCegarPaths {
			attempts = append(attempts, a)
		}
	}
	if len(attempts) == 0 {
		return Result{Status: sat.Unknown}, nil
	}

	pool := opt.Shared
	if pool == nil {
		pool = NewSharedPool()
	}
	targetTab := memo.TableOf(target)
	var deadline time.Time
	if opt.Limits.Timeout > 0 {
		deadline = time.Now().Add(opt.Limits.Timeout)
	}
	var res Result
	sawUnknown := false
	for _, a := range attempts {
		// One persistent assumption-based solver per (cover, orientation),
		// shared across every candidate grid probed on this pool.
		r, err := pool.engine(a.cover, a.dual, opt).solveGrid(target, targetTab, g, opt, deadline)
		if err != nil {
			return r, err
		}
		if r.Status == sat.Sat {
			return r, nil
		}
		res = r
		if r.Status == sat.Unknown {
			sawUnknown = true
		}
	}
	if sawUnknown {
		res.Status = sat.Unknown
	}
	return res, nil
}

// cegarAttempt is one orientation of the refinement engine: the cover
// being encoded (f for the primal structure, f^D for the dual), the flag,
// and the orientation's path count (capped just above the limit).
type cegarAttempt struct {
	cover cube.Cover
	dual  bool
	paths int64
}

// findMismatch simulates the assignment and returns the first input where
// it disagrees with the target table, or ok=true when it fully agrees.
func findMismatch(a *lattice.Assignment, tab *truth.Table) (uint64, bool) {
	for t := uint64(0); t < tab.Size(); t++ {
		if a.EvalConnectivity(t) != tab.Get(t) {
			return t, false
		}
	}
	return 0, true
}
