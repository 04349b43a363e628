package encode

import (
	"math/bits"
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
		// Every orientation, overlapped or not, is settled before the call
		// returns, so nothing uses the pool's solvers after this.
		defer pool.Release()
	}
	targetTab := memo.TableOf(target)
	var deadline time.Time
	if opt.Limits.Timeout > 0 {
		deadline = time.Now().Add(opt.Limits.Timeout)
	}
	// The orientations are tried in order; the second runs only when the
	// first is not Sat. It may start early, beside the first (overlap).
	// The first counts in solving from before the overlap is armed until
	// it is known whether the helper started, so the CPU gate sees it
	// throughout and no helper starts once the first has finished.
	solving.Add(1)
	var second *overlap
	if len(attempts) == 2 {
		second = startOverlap(pool, attempts[1], target, targetTab, g, opt, deadline)
	}
	res, err := pool.solve(attempts[0], target, targetTab, g, opt, deadline)
	overlapped := second.started()
	solving.Add(-1)
	if err != nil || res.Status == sat.Sat {
		if overlapped {
			second.discard()
		}
		return res, err
	}
	if len(attempts) == 1 {
		return res, nil
	}
	var r Result
	if overlapped {
		r, err = second.adopt(opt.Limits.Interrupt)
	} else {
		solving.Add(1)
		r, err = pool.solve(attempts[1], target, targetTab, g, opt, deadline)
		solving.Add(-1)
	}
	if err != nil || r.Status == sat.Sat {
		return r, err
	}
	if res.Status == sat.Unknown {
		r.Status = sat.Unknown
	}
	return r, nil
}

// solve runs one orientation on the pool's own engine, one persistent
// assumption-based solver per (cover, orientation) shared across every
// candidate grid probed on this pool, and commits its counters.
func (p *SharedPool) solve(a cegarAttempt, target cube.Cover, targetTab *truth.Table,
	g lattice.Grid, opt Options, deadline time.Time) (Result, error) {
	var t tally
	r, err := p.engine(a.cover, a.dual, opt).solveGrid(target, targetTab, g, opt, deadline, &t)
	t.commit("")
	return r, err
}

// cegarAttempt is one orientation of the refinement engine: the cover
// being encoded (f for the primal structure, f^D for the dual), the flag,
// and the orientation's path count (capped just above the limit).
type cegarAttempt struct {
	cover cube.Cover
	dual  bool
	paths int64
}

// findMismatch simulates the assignment 64 input points at a time and
// returns the lowest input where it disagrees with the target table, or
// ok=true when it fully agrees.
func findMismatch(a *lattice.Assignment, tab *truth.Table) (uint64, bool) {
	points := ^uint64(0)
	if tab.N < 6 {
		points = 1<<tab.Size() - 1 // the one word's low 2^N bits
	}
	for w := 0; w < tab.Words(); w++ {
		if d := (a.Word(w) ^ tab.Word(w)) & points; d != 0 {
			return uint64(w)*64 + uint64(bits.TrailingZeros64(d)), false
		}
	}
	return 0, true
}
