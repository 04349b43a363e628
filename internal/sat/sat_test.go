package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestLitEncoding(t *testing.T) {
	l := MkLit(3, false)
	if l.Var() != 3 || l.IsNeg() {
		t.Fatal("positive literal wrong")
	}
	n := l.Not()
	if n.Var() != 3 || !n.IsNeg() {
		t.Fatal("negation wrong")
	}
	if n.Not() != l {
		t.Fatal("double negation")
	}
	if l.String() != "4" || n.String() != "-4" {
		t.Fatalf("String = %q %q", l.String(), n.String())
	}
}

func TestTrivialSat(t *testing.T) {
	s := New(2)
	s.AddClause(MkLit(0, false))
	s.AddClause(MkLit(1, true))
	if st := s.Solve(Limits{}); st != Sat {
		t.Fatalf("status = %v", st)
	}
	if !s.Model(0) || s.Model(1) {
		t.Fatalf("model = %v %v", s.Model(0), s.Model(1))
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New(1)
	s.AddClause(MkLit(0, false))
	s.AddClause(MkLit(0, true))
	if st := s.Solve(Limits{}); st != Unsat {
		t.Fatalf("status = %v", st)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New(1)
	s.AddClause()
	if st := s.Solve(Limits{}); st != Unsat {
		t.Fatalf("status = %v", st)
	}
	if err := s.AddClause(MkLit(0, false)); err != ErrAddAfterUnsat {
		t.Fatalf("AddClause after unsat: %v", err)
	}
}

func TestTautologyClauseIgnored(t *testing.T) {
	s := New(1)
	s.AddClause(MkLit(0, false), MkLit(0, true))
	if st := s.Solve(Limits{}); st != Sat {
		t.Fatalf("status = %v", st)
	}
}

func TestImplicationChain(t *testing.T) {
	// x0 and a chain x_i -> x_{i+1}; all must be true.
	const n = 50
	s := New(n)
	s.AddClause(MkLit(0, false))
	for i := 0; i < n-1; i++ {
		s.AddClause(MkLit(i, true), MkLit(i+1, false))
	}
	if st := s.Solve(Limits{}); st != Sat {
		t.Fatalf("status = %v", st)
	}
	for i := 0; i < n; i++ {
		if !s.Model(i) {
			t.Fatalf("x%d should be true", i)
		}
	}
}

// pigeonhole builds PHP(n+1, n): n+1 pigeons into n holes — UNSAT.
func pigeonhole(pigeons, holes int) *Solver {
	s := New(pigeons * holes)
	v := func(p, h int) int { return p*holes + h }
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = MkLit(v(p, h), false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(v(p1, h), true), MkLit(v(p2, h), true))
			}
		}
	}
	return s
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := pigeonhole(n+1, n)
		if st := s.Solve(Limits{}); st != Unsat {
			t.Fatalf("PHP(%d,%d) = %v, want UNSAT", n+1, n, st)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := pigeonhole(5, 5)
	if st := s.Solve(Limits{}); st != Sat {
		t.Fatalf("PHP(5,5) = %v, want SAT", st)
	}
}

func TestConflictBudget(t *testing.T) {
	s := pigeonhole(9, 8) // hard enough to exceed a tiny budget
	st := s.Solve(Limits{MaxConflicts: 10})
	if st != Unknown {
		t.Fatalf("status = %v, want UNKNOWN under 10-conflict budget", st)
	}
}

func TestTimeout(t *testing.T) {
	s := pigeonhole(11, 10)
	start := time.Now()
	st := s.Solve(Limits{Timeout: 50 * time.Millisecond})
	if st == Sat {
		t.Fatal("PHP(11,10) cannot be SAT")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout not honored: %v", elapsed)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestAddVarGrow(t *testing.T) {
	s := New(0)
	a := s.AddVar()
	b := s.AddVar()
	if a != 0 || b != 1 || s.NumVars() != 2 {
		t.Fatal("AddVar indices wrong")
	}
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if st := s.Solve(Limits{}); st != Sat {
		t.Fatalf("status = %v", st)
	}
}

// randomCNF builds a random k-SAT instance and returns the clause list.
func randomCNF(r *rand.Rand, nVars, nClauses, k int) [][]Lit {
	var cls [][]Lit
	for i := 0; i < nClauses; i++ {
		seen := map[int]bool{}
		var c []Lit
		for len(c) < k {
			v := r.Intn(nVars)
			if seen[v] {
				continue
			}
			seen[v] = true
			c = append(c, MkLit(v, r.Intn(2) == 0))
		}
		cls = append(cls, c)
	}
	return cls
}

func bruteForceSat(nVars int, cls [][]Lit) bool {
	for m := uint64(0); m < 1<<uint(nVars); m++ {
		ok := true
		for _, c := range cls {
			sat := false
			for _, l := range c {
				val := m&(1<<uint(l.Var())) != 0
				if val != l.IsNeg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Property: solver agrees with brute force on random small instances, and
// SAT models actually satisfy all clauses. Each instance is solved with
// the default learnt cap and with tinyLearntCap, which reduces the learnt
// database on almost every step.
func TestPropSolverVsBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nVars := 4 + r.Intn(9)
		nClauses := 5 + r.Intn(40)
		cls := randomCNF(r, nVars, nClauses, 3)
		want := bruteForceSat(nVars, cls)
		for _, tiny := range []bool{false, true} {
			s := New(nVars)
			if tiny {
				s.learntCap = tinyLearntCap
			}
			for _, c := range cls {
				s.AddClause(c...)
			}
			st := s.Solve(Limits{})
			if (st == Sat) != want {
				return false
			}
			if st == Sat && !modelSatisfies(s.ModelSlice(), cls) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: mixed clause widths (1..4) also agree with brute force, at
// both learnt caps.
func TestPropSolverMixedWidths(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nVars := 3 + r.Intn(7)
		var cls [][]Lit
		for i, n := 0, 3+r.Intn(25); i < n; i++ {
			k := 1 + r.Intn(4)
			if k > nVars {
				k = nVars
			}
			cls = append(cls, randomCNF(r, nVars, 1, k)[0])
		}
		want := bruteForceSat(nVars, cls)
		for _, tiny := range []bool{false, true} {
			s := New(nVars)
			if tiny {
				s.learntCap = tinyLearntCap
			}
			for _, c := range cls {
				s.AddClause(c...)
			}
			if st := s.Solve(Limits{}); (st == Sat) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	s := pigeonhole(6, 5)
	s.Solve(Limits{})
	st := s.Stats()
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Fatalf("stats look empty: %+v", st)
	}
}

func TestXorChain(t *testing.T) {
	// XOR constraints as CNF: x_i xor x_{i+1} = 1 forces alternation; with
	// x0 = true the model is determined.
	const n = 24
	s := New(n)
	s.AddClause(MkLit(0, false))
	for i := 0; i < n-1; i++ {
		// (xi | xi+1) & (!xi | !xi+1)
		s.AddClause(MkLit(i, false), MkLit(i+1, false))
		s.AddClause(MkLit(i, true), MkLit(i+1, true))
	}
	if st := s.Solve(Limits{}); st != Sat {
		t.Fatalf("status = %v", st)
	}
	for i := 0; i < n; i++ {
		if s.Model(i) != (i%2 == 0) {
			t.Fatalf("alternation broken at %d", i)
		}
	}
}

func TestReduceDBKeepsCorrectness(t *testing.T) {
	// A hard instance that accumulates learnt clauses; the reduced DB
	// must not change the answer.
	s := pigeonhole(8, 7)
	if st := s.Solve(Limits{}); st != Unsat {
		t.Fatalf("PHP(8,7) = %v", st)
	}
	if s.Stats().Learnts == 0 {
		t.Fatal("expected learnt clauses")
	}
}

func TestSolveTwice(t *testing.T) {
	// Solving an already-SAT solver again must stay SAT with a model.
	s := New(3)
	s.AddClause(MkLit(0, false), MkLit(1, false))
	if s.Solve(Limits{}) != Sat || s.Solve(Limits{}) != Sat {
		t.Fatal("re-solve failed")
	}
}

func TestGrowDuringAddClause(t *testing.T) {
	// Literals beyond the initial variable count grow the solver.
	s := New(1)
	s.AddClause(MkLit(10, false))
	if s.NumVars() != 11 {
		t.Fatalf("NumVars = %d", s.NumVars())
	}
	if s.Solve(Limits{}) != Sat || !s.Model(10) {
		t.Fatal("grown variable not handled")
	}
}

func TestModelSlice(t *testing.T) {
	s := New(2)
	s.AddClause(MkLit(0, false))
	s.AddClause(MkLit(1, true))
	s.Solve(Limits{})
	m := s.ModelSlice()
	if len(m) != 2 || !m[0] || m[1] {
		t.Fatalf("ModelSlice = %v", m)
	}
}
