package encode

import (
	"math/bits"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/truth"
)

// SolveLMCegar decides the LM problem on one grid by counterexample-guided
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
// own, which then holds this one grid. It is SolveFirst's one-grid case:
// the second orientation may start beside the first.
func SolveLMCegar(target, targetDual cube.Cover, g lattice.Grid, opt Options) (Result, error) {
	rs, err := SolveFirst(target, targetDual, []lattice.Grid{g}, opt, nil)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
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
