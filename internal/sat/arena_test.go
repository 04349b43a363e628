package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// tinyLearntCap makes the learnt database reduce on every no-conflict
// search step (reduceDB fires while len(learnts) > learntCap+len(trail))
// for the first 64 passes, so deletions, compactions and relocations run
// almost every conflict. Each pass raises the cap by 256, so after those
// passes the usual schedule takes over: deleting on every step forever can
// make the search forget and relearn the same clauses without end.
const tinyLearntCap = -64 * 256

// checkArena verifies that every holder of a clause offset names a live
// clause consistently after any amount of deletion and compaction: each
// problem and learnt clause is watched on exactly its first two literals,
// every watch entry belongs to a listed clause, reasons of assigned
// variables are live clauses containing the implied literal, and the
// waste counter matches the deleted words. Implicit binaries are checked
// too: each is watched from both of its literals' lists, their number is
// the binaries counter, and an implicit reason names one of them whose
// other literal is false.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	live := map[cref]bool{}
	for _, c := range slices.Concat(s.clauses, s.learnts) {
		if s.arena[c]&deletedBit != 0 {
			t.Fatalf("listed clause %d is deleted", c)
		}
		live[c] = true
	}
	wasted := 0
	for c := 0; c < len(s.arena); c += hdrWords + s.size(cref(c)) {
		if s.arena[c]&deletedBit != 0 {
			wasted += hdrWords + s.size(cref(c))
		} else if !live[cref(c)] {
			t.Fatalf("live clause %d is in neither clauses nor learnts", c)
		}
	}
	if wasted != s.wasted {
		t.Fatalf("deleted words %d, wasted counter %d", wasted, s.wasted)
	}
	watched := map[cref]int{}
	for l, ws := range s.watches {
		for _, w := range ws {
			if !live[w.c] || s.size(w.c) == 2 {
				t.Fatalf("watch list %d holds a dead or binary clause %d", l, w.c)
			}
			if Lit(l) != s.lit(w.c, 0).Not() && Lit(l) != s.lit(w.c, 1).Not() {
				t.Fatalf("clause %d watched on %d, not on its first two literals", w.c, l)
			}
			watched[w.c]++
		}
	}
	implicit := map[[2]Lit]int{} // (x, other) from x's entry in the list of ¬x
	for l, ws := range s.binWatches {
		for _, w := range ws {
			if w.c&binTag != 0 {
				x := Lit(w.c &^ binTag)
				if x.Not() != Lit(l) || w.other == x {
					t.Fatalf("implicit binary (%v ∨ %v) in the list of %v", x, w.other, Lit(l))
				}
				implicit[[2]Lit{x, w.other}]++
				continue
			}
			if !live[w.c] || s.size(w.c) != 2 {
				t.Fatalf("binary watch list %d holds a dead or long clause %d", l, w.c)
			}
			if w.other.Not() == Lit(l) || (w.other != s.lit(w.c, 0) && w.other != s.lit(w.c, 1)) {
				t.Fatalf("binary watch of clause %d on %d has other %d", w.c, l, w.other)
			}
			watched[w.c]++
		}
	}
	for c := range live {
		if watched[c] != 2 {
			t.Fatalf("clause %d has %d watch entries", c, watched[c])
		}
	}
	entries := 0
	for k, n := range implicit {
		if implicit[[2]Lit{k[1], k[0]}] != n {
			t.Fatalf("implicit binary (%v ∨ %v) is watched %d times from %v, %d from %v",
				k[0], k[1], n, k[0], implicit[[2]Lit{k[1], k[0]}], k[1])
		}
		entries += n
	}
	if entries != 2*s.binaries {
		t.Fatalf("%d implicit binary watch entries for %d binaries", entries, s.binaries)
	}
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		switch {
		case r == crefUndef:
		case r&binTag != 0:
			other := Lit(r &^ binTag)
			if implicit[[2]Lit{other, l}] == 0 || s.value(other) != lFalse {
				t.Fatalf("reason of %v is implicit binary with %v, which does not imply it", l, other)
			}
		case !live[r] || !slices.Contains(s.lits(r), uint32(l)):
			t.Fatalf("reason of %v is clause %d, which does not imply it", l, r)
		}
	}
}

// TestArenaRelocation drives random incremental sessions with the learnt
// database reducing on almost every step, on instances large enough for
// deleted learnts to outgrow a quarter of the arena, so compaction runs
// inside the search. Every offset holder is checked after each call, and
// each verdict against a fresh solver given the assumptions as units.
func TestArenaRelocation(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	compacted := 0
	for inst := 0; inst < 20; inst++ {
		nVars := 80 + rng.Intn(20)
		s := New(nVars)
		cls := randomCNF(rng, nVars, nVars*38/10, 3)
		for _, c := range cls {
			s.AddClause(c...)
		}
		for round := 0; round < 5; round++ {
			for _, c := range randomCNF(rng, nVars, nVars/10, 3) {
				cls = append(cls, c)
				s.AddClause(c...)
			}
			as := []Lit{MkLit(rng.Intn(nVars), rng.Intn(2) == 0), MkLit(rng.Intn(nVars), rng.Intn(2) == 0)}
			s.learntCap = tinyLearntCap
			st := s.SolveAssume(Limits{}, as...)
			checkArena(t, s)
			fresh := New(nVars)
			for _, c := range append(cls, as[:1], as[1:]) {
				fresh.AddClause(c...)
			}
			if want := fresh.Solve(Limits{}); st != want {
				t.Fatalf("inst %d round %d: %v, fresh solver %v", inst, round, st, want)
			}
			if st == Sat && !modelSatisfies(s.ModelSlice(), append(cls, as[:1], as[1:])) {
				t.Fatalf("inst %d round %d: model violates the formula", inst, round)
			}
			if round%2 == 1 {
				s.PruneLearnts(2, 4)
				checkArena(t, s)
			}
		}
		if s.spare != nil {
			compacted++
		}
	}
	if compacted == 0 {
		t.Fatal("no session compacted its arena")
	}
}

// TestCloneContinuesIdentically clones an incremental session over binary
// and ternary clauses before every round and carries on with both copies.
// The clone works first, so the original's answer would show any state the
// two still shared: each round both take the same new clauses and solve
// under the same assumptions, and must agree on verdict, Stats, and model
// or core, with every offset holder of both checked.
func TestCloneContinuesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const nVars = 90
	s := New(nVars)
	for _, c := range append(randomCNF(rng, nVars, 50, 2), randomCNF(rng, nVars, 300, 3)...) {
		s.AddClause(c...)
	}
	s.learntCap = 64
	conflicts := int64(0)
	for round := 0; round < 8; round++ {
		c := s.Clone()
		checkArena(t, c)
		more := randomCNF(rng, nVars, 6, 2+round%2)
		as := []Lit{MkLit(rng.Intn(nVars), rng.Intn(2) == 0), MkLit(rng.Intn(nVars), rng.Intn(2) == 0)}
		for _, x := range []*Solver{c, s} {
			for _, cl := range more {
				x.AddClause(cl...)
			}
		}
		cst := c.SolveAssume(Limits{}, as...)
		st := s.SolveAssume(Limits{}, as...)
		checkSameRun(t, s, st, c, cst)
		checkArena(t, s)
		checkArena(t, c)
		conflicts = s.Stats().Conflicts
	}
	if conflicts == 0 {
		t.Fatal("the session never reached a conflict")
	}
}

// TestAddClauseAllocFree: adding a clause into spare arena and watch-list
// capacity allocates nothing, binary or long; a problem binary allocates
// nothing even without arena room, as it takes none.
func TestAddClauseAllocFree(t *testing.T) {
	s := New(8)
	long := []Lit{lit(2), nlit(0), lit(1)}
	bin := []Lit{lit(3), nlit(4)}
	const runs = 100
	s.Reserve(2*(runs+1), (len(long)+len(bin))*(runs+1))
	for _, l := range []Lit{lit(0), nlit(1), nlit(3), lit(4)} {
		s.watches[l] = slices.Grow(s.watches[l], runs+1)
		s.binWatches[l] = slices.Grow(s.binWatches[l], runs+1)
	}
	if n := testing.AllocsPerRun(runs, func() {
		s.AddClause(long...)
		s.AddClause(bin...)
	}); n != 0 {
		t.Fatalf("AddClause allocated %v times per call pair", n)
	}
	if s.NumClauses() != 2*(runs+1) {
		t.Fatalf("NumClauses = %d", s.NumClauses())
	}
	arena := len(s.arena)
	bin2 := []Lit{nlit(5), lit(6)}
	for _, l := range []Lit{lit(5), nlit(6)} {
		s.binWatches[l] = slices.Grow(s.binWatches[l], runs+1)
	}
	if n := testing.AllocsPerRun(runs, func() { s.AddClause(bin2...) }); n != 0 {
		t.Fatalf("adding a binary clause allocated %v times", n)
	}
	if len(s.arena) != arena || s.NumClauses() != 2*(runs+1)+runs+1 {
		t.Fatalf("binary clauses grew the arena %d -> %d words; NumClauses = %d", arena, len(s.arena), s.NumClauses())
	}
	checkArena(t, s)
}

// TestResolveAllocFree: once a satisfiable formula is solved, re-solving
// it replays the saved phases without a conflict and allocates nothing.
func TestResolveAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const nVars = 120
	s := New(nVars)
	for _, c := range randomCNF(rng, nVars, 3*nVars, 3) {
		s.AddClause(c...)
	}
	if st := s.Solve(Limits{}); st != Sat {
		t.Fatalf("instance is %v", st)
	}
	// Watchers wander between lists from one replay to the next, so a list
	// may still reach a new length (amortized growth, not a per-call cost)
	// long after the first solve. Give every list room for all watchers so
	// only the solver's own per-call allocations can show.
	for l := range s.watches {
		s.watches[l] = slices.Grow(s.watches[l], 2*s.NumClauses())
	}
	before := s.Stats()
	if n := testing.AllocsPerRun(20, func() {
		if st := s.Solve(Limits{}); st != Sat {
			t.Fatalf("re-solve: %v", st)
		}
	}); n != 0 {
		t.Fatalf("re-solve allocated %v times per call", n)
	}
	if d := s.Stats().Sub(before); d.Conflicts != 0 || d.Decisions == 0 {
		t.Fatalf("re-solves were not conflict-free replays: %+v", d)
	}
}
