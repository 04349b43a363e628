package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// session drives one seeded incremental session on s and returns one line
// per step: the verdict, model or final core, Stats and LBD histogram
// after every SolveAssume, and the removal count and Stats after every
// PruneLearnts and compaction. The learnt cap is small, so reduceDB
// deletes and compacts inside the search too. Every offset holder is
// checked after each step.
func session(t *testing.T, s *Solver, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nVars := 60 + rng.Intn(40)
	s.EnsureVars(nVars)
	s.learntCap = 32
	var got []string
	step := func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...)+fmt.Sprintf(" %+v %v", s.Stats(), s.LBDHistogram()))
	}
	for _, c := range append(randomCNF(rng, nVars, nVars/8, 2), randomCNF(rng, nVars, nVars*33/10, 3)...) {
		s.AddClause(c...)
	}
	for round := 0; round < 12; round++ {
		for _, c := range randomCNF(rng, nVars, 1+rng.Intn(nVars/16), 3+rng.Intn(2)) {
			s.AddClause(c...)
		}
		switch rng.Intn(4) {
		case 0:
			step("prune %d", s.PruneLearnts(int32(2+rng.Intn(4)), 4+rng.Intn(8)))
		case 1:
			s.compact()
			step("compact")
		}
		as := make([]Lit, rng.Intn(6))
		for i := range as {
			as[i] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		st := s.SolveAssume(Limits{MaxConflicts: s.Stats().Conflicts + 3000}, as...)
		switch st {
		case Sat:
			step("solve %v model=%#x", st, modelPrint(s, st))
		default:
			step("solve %v core=%v", st, s.FinalCore())
		}
		checkArena(t, s)
	}
	return got
}

// TestResetMatchesNew runs seeded sessions twice: on New(0), and on a
// solver Reset after an unrelated session, smaller or larger than the
// one that follows, so that the reset solver both reuses kept storage and
// grows past it. Every verdict, model, core, Stats and LBD histogram must
// be identical.
func TestResetMatchesNew(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		want := session(t, New(0), seed)
		used := New(0)
		session(t, used, 100+seed)
		used.SetObserver(func(SolveStats) { t.Fatal("observer survived Reset") })
		used.Reset()
		got := session(t, used, seed)
		if !slices.Equal(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d step %d: reset solver\n %v\nnew solver\n %s", seed, i, got[i:], want[i])
				}
			}
			t.Fatalf("seed %d: reset solver ran %d steps, new solver %d", seed, len(got), len(want))
		}
	}
}

// TestResetReloadAllocFree: a reset solver loading and solving the formula
// it held before allocates nothing, its watch lists included.
func TestResetReloadAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const nVars = 150
	cls := append(randomCNF(rng, nVars, 40, 2), randomCNF(rng, nVars, 560, 3)...)
	s := New(0)
	load := func() Status {
		s.EnsureVars(nVars)
		for _, c := range cls {
			s.AddClause(c...)
		}
		return s.Solve(Limits{})
	}
	st := load()
	if s.Stats().Conflicts == 0 {
		t.Fatal("the formula solves without a conflict; it exercises too little")
	}
	stats := s.Stats()
	if n := testing.AllocsPerRun(10, func() {
		s.Reset()
		if got := load(); got != st {
			t.Fatalf("reloaded formula is %v, was %v", got, st)
		}
	}); n != 0 {
		t.Fatalf("reset and reload allocated %v times per run", n)
	}
	if s.Stats() != stats {
		t.Fatalf("reloaded run %+v, first run %+v", s.Stats(), stats)
	}
}

// TestResetArenaStaysBounded replays one session on a solver reset
// between replays: rounds of new clauses, each growing the arena, then a
// solve and a compaction. The arena and its spare must stop growing once
// they hold the session. A spare grown by append came out larger than the
// arena, so every compaction allocated a larger buffer: after ten replays
// of this 4.8k-word session the two held 71M words.
func TestResetArenaStaysBounded(t *testing.T) {
	const nVars = 400
	s := New(0)
	replay := func() {
		rng := rand.New(rand.NewSource(9))
		s.Reset()
		s.EnsureVars(nVars)
		for round := 0; round < 8; round++ {
			for _, c := range randomCNF(rng, nVars, 100, 3) {
				s.AddClause(c...)
			}
			s.Solve(Limits{MaxConflicts: s.Stats().Conflicts + 200})
			s.compact()
			checkArena(t, s)
		}
	}
	replay()
	words := s.ArenaWords()
	for i := 0; i < 9; i++ {
		replay()
	}
	if s.ArenaWords() != words {
		t.Fatalf("arena and spare hold %d words after 9 more replays, %d after the first", s.ArenaWords(), words)
	}
}
