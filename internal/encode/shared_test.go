package encode

import (
	"math/rand"
	"testing"

	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/sat"
)

// TestSharedAgreesWithCegar is the shared engine's soundness check: on
// random small LM problems, solving every grid on one shared
// assumption-based solver must agree on satisfiability with solving each
// grid on a pool of its own, and SAT answers must verify.
func TestSharedAgreesWithCegar(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	grids := []lattice.Grid{{M: 2, N: 2}, {M: 3, N: 2}, {M: 2, N: 3}, {M: 3, N: 3}, {M: 4, N: 2}}
	for trial := 0; trial < 20; trial++ {
		raw := randomFunc(rng, 3, 3)
		f := minimize.Auto(raw)
		if f.IsZero() || f.IsOne() {
			continue
		}
		d := minimize.Auto(f.Dual())
		pool := NewSharedPool() // one pool across all grids: that is the point
		for _, g := range grids {
			ceg, err := SolveLMCegar(f, d, g, Options{})
			if err != nil {
				t.Fatalf("cegar %v: %v", g, err)
			}
			shr, err := SolveLMCegar(f, d, g, Options{Shared: pool})
			if err != nil {
				t.Fatalf("shared %v: %v", g, err)
			}
			if (ceg.Status == sat.Sat) != (shr.Status == sat.Sat) {
				t.Fatalf("trial %d grid %v: cegar=%v shared=%v for %v",
					trial, g, ceg.Status, shr.Status, f)
			}
			if shr.Status == sat.Sat && !shr.Assignment.Realizes(f) {
				t.Fatalf("trial %d grid %v: shared answer unverified", trial, g)
			}
		}
	}
}

// TestSharedFig1 checks the paper's running example end to end on a
// shared pool, including a definitive Unsat on the infeasible 3×3.
func TestSharedFig1(t *testing.T) {
	f, d := isopPair(fig1())
	pool := NewSharedPool()
	r, err := SolveLMCegar(f, d, lattice.Grid{M: 3, N: 3}, Options{Shared: pool})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != sat.Unsat {
		t.Fatalf("3x3 status = %v, want UNSAT", r.Status)
	}
	r, err = SolveLMCegar(f, d, lattice.Grid{M: 4, N: 2}, Options{Shared: pool})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != sat.Sat || !r.Assignment.Realizes(f) {
		t.Fatalf("4x2 status = %v", r.Status)
	}
}

// TestSharedReuseCounters documents the engine's point: the second solve
// of the same shape reuses the written skeleton (ReusedSolvers=1, far
// fewer added clauses), and a second shape on the same pool gets the
// first shape's counterexample entries transferred in.
func TestSharedReuseCounters(t *testing.T) {
	f, d := isopPair(fig1())
	pool := NewSharedPool()
	g := lattice.Grid{M: 4, N: 2}

	first, err := SolveLMCegar(f, d, g, Options{Shared: pool})
	if err != nil {
		t.Fatal(err)
	}
	if first.ReusedSolvers != 0 {
		t.Fatalf("first solve claims reuse: %+v", first)
	}
	if first.AddedClauses == 0 {
		t.Fatal("first solve added nothing")
	}

	second, err := SolveLMCegar(f, d, g, Options{Shared: pool})
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != sat.Sat {
		t.Fatalf("second status = %v", second.Status)
	}
	if second.ReusedSolvers != 1 {
		t.Fatal("second solve of the same shape must reuse the skeleton")
	}
	if second.AddedClauses >= first.AddedClauses {
		t.Fatalf("reused solve added %d clauses, first added %d",
			second.AddedClauses, first.AddedClauses)
	}

	// A new shape, probed after another candidate discovered entries,
	// gets those entries written in as transferred knowledge. Fig1's 4x2
	// CEGAR run always refines beyond the two seeds, so the transfer into
	// the next shape is nonempty.
	if first.CegarIters > 1 {
		other, err := SolveLMCegar(f, d, lattice.Grid{M: 2, N: 4}, Options{Shared: pool})
		if err != nil {
			t.Fatal(err)
		}
		_ = other // 2x4 fails the structural check; pick one that builds
	}
	third, err := SolveLMCegar(f, d, lattice.Grid{M: 3, N: 3}, Options{Shared: pool})
	if err != nil {
		t.Fatal(err)
	}
	if third.ReusedSolvers != 0 {
		t.Fatal("a new shape cannot be a reuse")
	}
	if first.CegarIters > 1 && third.TransferredCEXClauses == 0 {
		t.Fatalf("no counterexample transfer into the new shape: %+v", third)
	}
}

// TestSharedUnsatDoesNotPoison: a definitively Unsat grid must not make
// later grids on the same engine Unsat — the refutation is scoped to the
// activation literal, whose final core records it.
func TestSharedUnsatDoesNotPoison(t *testing.T) {
	f, d := isopPair(fig1())
	pool := NewSharedPool()
	for i := 0; i < 2; i++ { // twice: the reused path must stay sound too
		r, err := SolveLMCegar(f, d, lattice.Grid{M: 3, N: 3}, Options{Shared: pool})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != sat.Unsat {
			t.Fatalf("round %d: 3x3 = %v, want UNSAT", i, r.Status)
		}
		if r.AssumptionCoreSize == 0 {
			t.Fatalf("round %d: Unsat under assumptions must report a core", i)
		}
		r, err = SolveLMCegar(f, d, lattice.Grid{M: 4, N: 2}, Options{Shared: pool})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != sat.Sat || !r.Assignment.Realizes(f) {
			t.Fatalf("round %d: 4x2 = %v, want SAT", i, r.Status)
		}
	}
}

// TestSharedAblationOptions runs the shared engine under each formula
// ablation to cover the guarded/unguarded clause variants.
func TestSharedAblationOptions(t *testing.T) {
	f, d := isopPair(fig1())
	g := lattice.Grid{M: 4, N: 2}
	for _, opt := range []Options{
		{DisableFacts: true},
		{DisableDegree: true},
		{DisableSymmetry: true},
		{FullTL: true},
		{StrictProducts: true},
	} {
		opt.Shared = NewSharedPool()
		r, err := SolveLMCegar(f, d, g, opt)
		if err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		if r.Status != sat.Sat || !r.Assignment.Realizes(f) {
			t.Fatalf("opts %+v: status = %v", opt, r.Status)
		}
	}
}

// TestSharedFilterCounters pins the clause-quality filter's bookkeeping
// and its soundness on the paper's running example. Every engine seeds
// two truth-table entries, so a transfer cap of 1 must drop at least one
// entry into the very first skeleton — and the CEGAR refinement must
// rediscover whatever mattered, keeping the answer identical to the
// unfiltered run.
func TestSharedFilterCounters(t *testing.T) {
	f, d := isopPair(fig1())
	g := lattice.Grid{M: 4, N: 2}

	capped, err := SolveLMCegar(f, d, g, Options{Shared: NewSharedPool(), CEXTransferLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Status != sat.Sat || !capped.Assignment.Realizes(f) {
		t.Fatalf("capped transfer broke the answer: %v", capped.Status)
	}
	if capped.TransferFiltered == 0 {
		t.Fatalf("cap 1 against 2 seeded entries filtered nothing: %+v", capped)
	}

	open, err := SolveLMCegar(f, d, g, Options{Shared: NewSharedPool(), CEXTransferLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if open.TransferFiltered != 0 {
		t.Fatalf("unlimited transfer reported %d filtered", open.TransferFiltered)
	}
	if open.Status != capped.Status {
		t.Fatalf("filter changed the answer: %v vs %v", capped.Status, open.Status)
	}

	// Learnt pruning triggers on grid switches: drive the engine through
	// the infeasible 3x3 (a refutation that learns clauses) and back, with
	// the prune forced aggressive, and check the counter threads through.
	pool := NewSharedPool()
	aggressive := Options{Shared: pool, SharedLearntLBD: 1, SharedLearntSize: 3}
	if _, err := SolveLMCegar(f, d, lattice.Grid{M: 3, N: 3}, aggressive); err != nil {
		t.Fatal(err)
	}
	back, err := SolveLMCegar(f, d, g, aggressive)
	if err != nil {
		t.Fatal(err)
	}
	if back.Status != sat.Sat || !back.Assignment.Realizes(f) {
		t.Fatalf("post-prune answer broken: %v", back.Status)
	}
	if back.PrunedLearnts == 0 {
		t.Fatalf("aggressive prune on a grid switch pruned nothing: %+v", back)
	}

	// With the filter disabled the counters must stay silent.
	offPool := NewSharedPool()
	off := Options{Shared: offPool, CEXTransferLimit: -1, SharedLearntLBD: -1}
	if _, err := SolveLMCegar(f, d, lattice.Grid{M: 3, N: 3}, off); err != nil {
		t.Fatal(err)
	}
	quiet, err := SolveLMCegar(f, d, g, off)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.TransferFiltered != 0 || quiet.PrunedLearnts != 0 {
		t.Fatalf("disabled filter still counted: %+v", quiet)
	}
}

// TestFilterOptionResolvers pins the Options zero-value semantics: zero
// means the calibrated defaults, negative disables.
func TestFilterOptionResolvers(t *testing.T) {
	if got := (Options{}).cexTransferLimit(); got != DefaultCEXTransferLimit {
		t.Fatalf("zero cex limit resolves to %d, want %d", got, DefaultCEXTransferLimit)
	}
	if got := (Options{CEXTransferLimit: -3}).cexTransferLimit(); got != -1 {
		t.Fatalf("negative cex limit resolves to %d, want -1 (unlimited)", got)
	}
	if got := (Options{CEXTransferLimit: 7}).cexTransferLimit(); got != 7 {
		t.Fatalf("explicit cex limit resolves to %d, want 7", got)
	}
	lbd, size, on := (Options{}).learntPrune()
	if !on || lbd != DefaultSharedLearntLBD || size != DefaultSharedLearntSize {
		t.Fatalf("zero prune resolves to (%d,%d,%v)", lbd, size, on)
	}
	if _, _, on := (Options{SharedLearntLBD: -1}).learntPrune(); on {
		t.Fatal("negative LBD budget must disable the prune")
	}
	if _, _, on := (Options{SharedLearntSize: -1}).learntPrune(); on {
		t.Fatal("negative size budget must disable the prune")
	}
	lbd, size, on = (Options{SharedLearntLBD: 2, SharedLearntSize: 9}).learntPrune()
	if !on || lbd != 2 || size != 9 {
		t.Fatalf("explicit prune resolves to (%d,%d,%v)", lbd, size, on)
	}
}

// TestPoolMatchesMonolithic is the per-candidate equivalence property of
// the one LM engine. On 200 random covers of 3 to 6 inputs it walks a
// seeded random sequence of candidate grids, revisits included, on one
// pool, and with no SAT budget every verdict must equal the monolithic
// formulation's (SolveLM) and every Sat assignment must realize the
// cover. Both are definitive per candidate: a pool skeleton holds a
// subset of the monolithic formula's entries, so its Unsat is a
// relaxation proof, and its Sat is verified by simulation. The filtered
// run forces the clause-quality filter to its most aggressive settings,
// which may only drop clauses a skeleton can rediscover.
func TestPoolMatchesMonolithic(t *testing.T) {
	grids := []lattice.Grid{
		{M: 1, N: 3}, {M: 3, N: 1}, {M: 2, N: 2}, {M: 2, N: 3}, {M: 3, N: 2},
		{M: 2, N: 4}, {M: 4, N: 2}, {M: 3, N: 3},
	}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"default", Options{}},
		{"filtered", Options{CEXTransferLimit: 1, SharedLearntLBD: 1, SharedLearntSize: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4242))
			covers, sats, unsats := 0, 0, 0
			for covers < 200 {
				n := 3 + rng.Intn(4) // 3..6 inputs
				f := minimize.Auto(randomFunc(rng, n, 2+rng.Intn(3)))
				if f.IsZero() || f.IsOne() {
					continue
				}
				covers++
				d := minimize.Auto(f.Dual())
				opt := tc.opt
				opt.Shared = NewSharedPool()
				for step := 0; step < 8; step++ {
					g := grids[rng.Intn(len(grids))]
					mono, err := SolveLM(f, d, g, Options{})
					if err != nil {
						t.Fatalf("cover %d %v: monolithic: %v", covers, g, err)
					}
					pool, err := SolveLMCegar(f, d, g, opt)
					if err != nil {
						t.Fatalf("cover %d %v: pool: %v", covers, g, err)
					}
					if pool.Status != mono.Status {
						t.Fatalf("cover %d step %d %v: pool %v, monolithic %v for %v",
							covers, step, g, pool.Status, mono.Status, f)
					}
					switch pool.Status {
					case sat.Sat:
						sats++
						if !pool.Assignment.Realizes(f) {
							t.Fatalf("cover %d step %d %v: pool answer unverified", covers, step, g)
						}
					case sat.Unsat:
						unsats++
					}
				}
			}
			if sats == 0 || unsats == 0 {
				t.Fatalf("degenerate sweep: %d sat, %d unsat verdicts", sats, unsats)
			}
		})
	}
}
