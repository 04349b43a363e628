package sat

import (
	"math/rand"
	"testing"
)

// TestPruneLearntsSound: pruning learnt clauses between solves must
// never change answers — learnts are consequences of the problem
// clauses, so dropping any subset only costs re-derivation work. Random
// 3-SAT instances are solved under alternating assumption sets with an
// aggressive prune between every call, cross-checked against a fresh
// solver given the same assumptions as units.
func TestPruneLearntsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for inst := 0; inst < 100; inst++ {
		nVars := 8 + rng.Intn(8)
		cls := randomCNF(rng, nVars, 3*nVars+rng.Intn(2*nVars), 3)

		pruned := New(nVars)
		for _, c := range cls {
			pruned.AddClause(c...)
		}
		for call := 0; call < 4; call++ {
			v1, v2 := rng.Intn(nVars), rng.Intn(nVars)
			as := []Lit{MkLit(v1, rng.Intn(2) == 0), MkLit(v2, rng.Intn(2) == 0)}
			got := pruned.SolveAssume(Limits{}, as...)
			pruned.PruneLearnts(0, 0) // everything unlocked and non-binary goes

			fresh := New(nVars)
			for _, c := range cls {
				fresh.AddClause(c...)
			}
			for _, a := range as {
				fresh.AddClause(a)
			}
			want := fresh.Solve(Limits{})
			if got != want {
				t.Fatalf("inst %d call %d: pruned solver %v, fresh %v (assume %v)",
					inst, call, got, want, as)
			}
		}
	}
}

// TestPruneLearntsCounts checks the bookkeeping: a generous budget keeps
// the database intact, a zero budget drains it down to binary/locked
// clauses and feeds the Removed/Reductions stats.
func TestPruneLearntsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s := New(30)
	for _, c := range randomCNF(rng, 25, 110, 3) {
		s.AddClause(c...)
	}
	if st := s.Solve(Limits{}); st == Unknown {
		t.Fatal("unexpected Unknown")
	}
	if s.Stats().Learnts == 0 {
		t.Skip("instance produced no learnt clauses")
	}
	before := len(s.learnts)
	if n := s.PruneLearnts(1<<30, 1<<30); n != 0 {
		t.Fatalf("generous budget pruned %d clauses", n)
	}
	if len(s.learnts) != before {
		t.Fatalf("generous budget changed DB size: %d → %d", before, len(s.learnts))
	}
	removed0 := s.Stats().Removed
	n := s.PruneLearnts(0, 0)
	for _, c := range s.learnts {
		if !s.locked(c) && s.size(c) != 2 {
			t.Fatalf("zero budget kept an unlocked %d-lit clause", s.size(c))
		}
	}
	if n != before-len(s.learnts) {
		t.Fatalf("prune reported %d, DB shrank by %d", n, before-len(s.learnts))
	}
	if n > 0 && s.Stats().Removed != removed0+int64(n) {
		t.Fatalf("Removed stat: %d, want %d", s.Stats().Removed, removed0+int64(n))
	}
}
