package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// The goldens below pin the solver's search trajectory: every counter of
// Stats, and a fingerprint of the model, for seeded instances. They were
// recorded from the solver before its clause storage moved into a flat
// arena and must not change under any storage or allocation refactor:
// the arena keeps the watch-list order, the literal swaps in propagate,
// the learnt order and the reduceDB sort, so every decision, conflict and
// propagation repeats exactly. A heuristic change moves them on purpose
// and re-records them in the same commit.

// modelPrint is an FNV-1a digest of the full model, or 0 when the last
// call was not Sat.
func modelPrint(s *Solver, st Status) uint64 {
	if st != Sat {
		return 0
	}
	h := fnv.New64a()
	for _, b := range s.ModelSlice() {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// TestGoldenStats: random 3-SAT near the phase transition, solved in one
// call. The default-cap cases run several reduceDB passes at the
// production threshold; the small-cap cases reduce (and so delete and
// compact) every few hundred conflicts.
func TestGoldenStats(t *testing.T) {
	cases := []struct {
		seed      int64
		nVars     int
		learntCap int // 0 keeps New's default
		want      string
	}{
		{11, 200, 0, "UNSAT {Decisions:26498 Conflicts:22488 Propagations:830829 Restarts:62 Learnts:22480 Removed:17192 Reductions:4 LBDSum:168648} model=0x0"},
		{12, 210, 0, "SAT {Decisions:23560 Conflicts:19748 Propagations:752131 Restarts:61 Learnts:19748 Removed:12689 Reductions:3 LBDSum:153820} model=0xc5cdc14e64c377b6"},
		{21, 150, 16, "SAT {Decisions:5006 Conflicts:4160 Propagations:127581 Restarts:15 Learnts:4158 Removed:2806 Reductions:7 LBDSum:26386} model=0xab4e894cb393d410"},
		{22, 160, 16, "UNSAT {Decisions:4731 Conflicts:3942 Propagations:134370 Restarts:14 Learnts:3931 Removed:2816 Reductions:7 LBDSum:23252} model=0x0"},
		{25, 180, 16, "UNSAT {Decisions:8156 Conflicts:6865 Propagations:239624 Restarts:28 Learnts:6856 Removed:4736 Reductions:9 LBDSum:45776} model=0x0"},
		{26, 90, -1 << 20, "SAT {Decisions:136 Conflicts:106 Propagations:2224 Restarts:0 Learnts:106 Removed:84 Reductions:137 LBDSum:573} model=0xb09630b227da5798"},
	}
	for _, c := range cases {
		r := rand.New(rand.NewSource(c.seed))
		cls := randomCNF(r, c.nVars, int(float64(c.nVars)*4.26), 3)
		s := New(c.nVars)
		if c.learntCap != 0 {
			s.learntCap = c.learntCap
		}
		for _, cl := range cls {
			s.AddClause(cl...)
		}
		st := s.Solve(Limits{MaxConflicts: 60000})
		got := fmt.Sprintf("%v %+v model=%#x", st, s.Stats(), modelPrint(s, st))
		if got != c.want {
			t.Errorf("seed %d (%d vars, cap %d):\n got %s\nwant %s", c.seed, c.nVars, c.learntCap, got, c.want)
		}
	}
}

// TestGoldenAssumeSequence: one incremental session on a solver whose
// learnt database reduces often, interleaving AddClause, SolveAssume,
// FinalCore and PruneLearnts the way the shared LM engine does. Each step
// records its verdict, the core, the prune count and the cumulative Stats.
func TestGoldenAssumeSequence(t *testing.T) {
	const nVars = 120
	r := rand.New(rand.NewSource(41))
	cls := randomCNF(r, nVars, 470, 3)
	s := New(nVars)
	s.learntCap = 64
	var got []string
	step := func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...)+fmt.Sprintf(" %+v", s.Stats()))
	}
	assume := func(k int) []Lit {
		as := make([]Lit, k)
		for i := range as {
			as[i] = MkLit(r.Intn(nVars), r.Intn(2) == 0)
		}
		return as
	}
	for i, cl := range cls {
		s.AddClause(cl...)
		if i%94 != 93 {
			continue
		}
		for call := 0; call < 3; call++ {
			as := assume(2 + call*3)
			st := s.SolveAssume(Limits{MaxConflicts: s.Stats().Conflicts + 4000}, as...)
			step("solve %v core=%v model=%#x", st, s.FinalCore(), modelPrint(s, st))
		}
		n := s.PruneLearnts(int32(3+i%5), 12)
		step("prune %d", n)
	}
	st := s.Solve(Limits{MaxConflicts: s.Stats().Conflicts + 20000})
	step("final %v model=%#x", st, modelPrint(s, st))

	want := []string{
		"solve SAT core=[] model=0xfac274dab8e979f3 {Decisions:102 Conflicts:0 Propagations:120 Restarts:0 Learnts:0 Removed:0 Reductions:0 LBDSum:0}",
		"solve SAT core=[] model=0x277c93eaf05e6275 {Decisions:200 Conflicts:0 Propagations:240 Restarts:0 Learnts:0 Removed:0 Reductions:0 LBDSum:0}",
		"solve SAT core=[] model=0x52886d43a71d8ae0 {Decisions:294 Conflicts:0 Propagations:360 Restarts:0 Learnts:0 Removed:0 Reductions:0 LBDSum:0}",
		"prune 0 {Decisions:294 Conflicts:0 Propagations:360 Restarts:0 Learnts:0 Removed:0 Reductions:0 LBDSum:0}",
		"solve SAT core=[] model=0x91e99e9cd88e9bac {Decisions:368 Conflicts:1 Propagations:485 Restarts:0 Learnts:1 Removed:0 Reductions:0 LBDSum:6}",
		"solve SAT core=[] model=0xf54efa889b4f2bfc {Decisions:470 Conflicts:2 Propagations:656 Restarts:0 Learnts:2 Removed:0 Reductions:0 LBDSum:9}",
		"solve SAT core=[] model=0xeec5b4f9470a3eba {Decisions:546 Conflicts:2 Propagations:776 Restarts:0 Learnts:2 Removed:0 Reductions:0 LBDSum:9}",
		"prune 1 {Decisions:546 Conflicts:2 Propagations:776 Restarts:0 Learnts:2 Removed:1 Reductions:1 LBDSum:9}",
		"solve SAT core=[] model=0x4e749dc60d004787 {Decisions:602 Conflicts:3 Propagations:907 Restarts:0 Learnts:3 Removed:1 Reductions:1 LBDSum:12}",
		"solve SAT core=[] model=0x41d2305e3f788afa {Decisions:652 Conflicts:3 Propagations:1027 Restarts:0 Learnts:3 Removed:1 Reductions:1 LBDSum:12}",
		"solve SAT core=[] model=0xff62aea99d7861e9 {Decisions:707 Conflicts:3 Propagations:1147 Restarts:0 Learnts:3 Removed:1 Reductions:1 LBDSum:12}",
		"prune 0 {Decisions:707 Conflicts:3 Propagations:1147 Restarts:0 Learnts:3 Removed:1 Reductions:1 LBDSum:12}",
		"solve SAT core=[] model=0xe45e094765ce1bca {Decisions:767 Conflicts:7 Propagations:1358 Restarts:0 Learnts:7 Removed:1 Reductions:1 LBDSum:28}",
		"solve SAT core=[] model=0x16911e726cb8b217 {Decisions:786 Conflicts:7 Propagations:1478 Restarts:0 Learnts:7 Removed:1 Reductions:1 LBDSum:28}",
		"solve SAT core=[] model=0x43329498de6bba3d {Decisions:828 Conflicts:22 Propagations:2016 Restarts:0 Learnts:22 Removed:1 Reductions:1 LBDSum:169}",
		"prune 16 {Decisions:828 Conflicts:22 Propagations:2016 Restarts:0 Learnts:22 Removed:17 Reductions:2 LBDSum:169}",
		"solve UNSAT core=[58 8] model=0x0 {Decisions:1444 Conflicts:547 Propagations:16419 Restarts:3 Learnts:547 Removed:217 Reductions:4 LBDSum:3320}",
		"solve UNSAT core=[-104 65 -108 59] model=0x0 {Decisions:1683 Conflicts:739 Propagations:21463 Restarts:4 Learnts:739 Removed:217 Reductions:4 LBDSum:4544}",
		"solve UNSAT core=[117 49 -42 108 -52 113 -114 70] model=0x0 {Decisions:1721 Conflicts:771 Propagations:22203 Restarts:4 Learnts:771 Removed:217 Reductions:4 LBDSum:4782}",
		"prune 99 {Decisions:1721 Conflicts:771 Propagations:22203 Restarts:4 Learnts:771 Removed:316 Reductions:5 LBDSum:4782}",
		"final UNSAT model=0x0 {Decisions:3918 Conflicts:2630 Propagations:74137 Restarts:13 Learnts:2620 Removed:1579 Reductions:8 LBDSum:14799}",
	}
	if len(got) != len(want) {
		t.Fatalf("%d steps, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("step %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
