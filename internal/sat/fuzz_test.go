package sat

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseDIMACS checks the DIMACS reader never panics and that solvable
// parses yield internally consistent models.
func FuzzParseDIMACS(f *testing.F) {
	f.Add("p cnf 3 2\n1 -2 0\n2 3 0\n")
	f.Add("1 0\n-1 0\n")
	f.Add("c comment\np cnf 1 1\n1 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<12 {
			return
		}
		s, err := ParseDIMACS(strings.NewReader(input))
		if err != nil {
			return
		}
		if s.NumVars() > 64 || s.NumClauses() > 512 {
			return // keep the fuzz executions cheap
		}
		if st := s.Solve(Limits{MaxConflicts: 2000}); st == Sat {
			// A model must exist for every variable index queried.
			for v := 0; v < s.NumVars(); v++ {
				_ = s.Model(v)
			}
		}
	})
}

// FuzzSolveVsBruteForce decodes its input into an incremental session
// over at most 12 variables: clauses, solves under assumptions,
// PruneLearnts calls, arena compactions, clones and resets, interleaved.
// A clone joins the session: every later step runs on the original and on
// each clone, and their verdicts, Stats, models and cores must stay
// identical. A reset empties every solver of the session and starts the
// formula over, and a New solver joins it, which the reset ones must then
// match step for step.
// Every verdict is checked against enumeration, every model against the
// clauses and assumptions, and every final core for being a subset of the
// assumptions that together with the formula is unsatisfiable. After each
// step checkArena verifies every holder of a clause offset. When the
// second byte is odd every solve starts from tinyLearntCap.
//
// Encoding: byte 0 picks the variable count, byte 1 the learnt cap, then
// each op byte's low three bits pick the operation and its high bits a
// width, a budget or (op 7, bits 3-4) cloning for 1, a reset for 3 and
// compaction otherwise; literal bytes give the variable in bits 1-7 and
// the sign in bit 0.
func FuzzSolveVsBruteForce(f *testing.F) {
	f.Add([]byte{5, 1, 0x10, 2, 5, 8, 0x18, 3, 6, 9, 1, 0x0c, 0, 0x14, 2, 3, 4, 0x06, 0x07, 0x05})
	f.Add([]byte{11, 0, 0x18, 0, 2, 4, 6, 0x19, 1, 3, 5, 7, 0x1a, 8, 10, 12, 14, 0x14, 1, 2, 0x2e, 0x0f, 0x1c, 3, 5, 7, 9})
	f.Add([]byte{2, 1, 0x00, 0, 0x00, 1, 0x04, 0x0d, 0, 2})
	// Binary clauses, a clone, more binaries on both copies, solves.
	f.Add([]byte{7, 0, 0x08, 0, 3, 0x08, 2, 5, 0x08, 4, 7, 0x0f, 0x08, 1, 8, 0x08, 6, 9,
		0x0c, 1, 0x14, 0, 4, 0x08, 10, 13, 0x0f, 0x10, 1, 2, 5, 0x0c, 12, 0x06, 0x07, 0x0d, 3})
	// Clauses and a solve, a reset, then a new formula on the reset solver
	// and the New one beside it.
	f.Add([]byte{9, 1, 0x10, 2, 5, 8, 0x18, 3, 6, 9, 1, 0x08, 4, 11, 0x0c, 0, 0x1f,
		0x10, 1, 4, 7, 0x18, 2, 9, 12, 15, 0x08, 3, 10, 0x14, 6, 2, 0x07, 0x0c, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Inputs stay short so that minimizing a new one, which the fuzzer
		// does before it counts further executions, takes moments.
		if len(data) < 2 || len(data) > 256 {
			return
		}
		nVars := 1 + int(data[0])%12
		tiny := data[1]&1 == 1
		ss := []*Solver{New(nVars)}
		data = data[2:]
		// lits decodes the next k literal bytes, or reports that the input
		// ran out.
		lits := func(k int) ([]Lit, bool) {
			if len(data) < k {
				return nil, false
			}
			ls := make([]Lit, k)
			for i, b := range data[:k] {
				ls[i] = MkLit(int(b>>1)%nVars, b&1 == 1)
			}
			data = data[k:]
			return ls, true
		}
		var cls [][]Lit
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch op & 7 {
			case 0, 1, 2, 3:
				c, ok := lits(1 + int(op>>3)%4)
				if !ok {
					return
				}
				cls = append(cls, c)
				for _, s := range ss {
					s.AddClause(c...)
				}
			case 4, 5:
				as, ok := lits(int(op>>3) % 5)
				if !ok {
					return
				}
				var st0 Status
				for i, s := range ss {
					if tiny {
						s.learntCap = tinyLearntCap
					}
					st := s.SolveAssume(Limits{}, as...)
					checkVsBruteForce(t, s, nVars, cls, as, st)
					if i == 0 {
						st0 = st
					} else {
						checkSameRun(t, ss[0], st0, s, st)
					}
				}
			case 6:
				for _, s := range ss {
					s.PruneLearnts(int32(op>>3&3), 2+int(op>>5))
				}
			case 7:
				switch {
				case op>>3&3 == 1 && len(ss) < 3:
					ss = append(ss, ss[0].Clone())
				case op>>3&3 == 3:
					for _, s := range ss {
						s.Reset()
						s.EnsureVars(nVars)
					}
					cls = nil
					if len(ss) < 3 {
						ss = append(ss, New(nVars))
					}
				default:
					for _, s := range ss {
						s.compact()
					}
				}
			}
			for _, s := range ss {
				checkArena(t, s)
			}
		}
	})
}

// checkSameRun checks that clone c has just answered exactly as s did:
// the same status, Stats, and model or final core.
func checkSameRun(t *testing.T, s *Solver, st Status, c *Solver, cst Status) {
	t.Helper()
	switch {
	case cst != st:
		t.Fatalf("clone answered %v, original %v", cst, st)
	case s.Stats() != c.Stats():
		t.Fatalf("clone's Stats %+v, original's %+v", c.Stats(), s.Stats())
	case st == Sat && !slices.Equal(s.ModelSlice(), c.ModelSlice()):
		t.Fatal("clone's model differs from the original's")
	case st == Unsat && !slices.Equal(s.FinalCore(), c.FinalCore()):
		t.Fatalf("clone's core %v, original's %v", c.FinalCore(), s.FinalCore())
	}
}

// checkVsBruteForce checks one SolveAssume verdict by enumeration.
func checkVsBruteForce(t *testing.T, s *Solver, nVars int, cls [][]Lit, as []Lit, st Status) {
	t.Helper()
	units := func(ls []Lit) [][]Lit {
		out := slices.Clone(cls)
		for _, l := range ls {
			out = append(out, []Lit{l})
		}
		return out
	}
	want := bruteForceSat(nVars, units(as))
	switch {
	case st == Unknown:
		t.Fatal("unlimited solve returned Unknown")
	case (st == Sat) != want:
		t.Fatalf("verdict %v under %v, brute force sat=%v", st, as, want)
	case st == Sat:
		if !modelSatisfies(s.ModelSlice(), units(as)) {
			t.Fatalf("model violates the formula or the assumptions %v", as)
		}
	default:
		core := s.FinalCore()
		for _, l := range core {
			if !slices.Contains(as, l) {
				t.Fatalf("core %v is not a subset of the assumptions %v", core, as)
			}
		}
		if bruteForceSat(nVars, units(core)) {
			t.Fatalf("formula with core %v is satisfiable", core)
		}
	}
}
