package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/sat"
)

func TestSynthesizeFig1(t *testing.T) {
	// f = abcd + a'b'c'd': the paper reports the minimum size 4×2 = 8.
	f := cube.NewCover(4,
		cube.FromLiterals([]int{0, 1, 2, 3}, nil),
		cube.FromLiterals(nil, []int{0, 1, 2, 3}))
	r, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 8 {
		t.Fatalf("size = %d (%v), want 8", r.Size, r.Grid)
	}
	if !r.Assignment.Realizes(r.ISOP) {
		t.Fatal("result does not realize target")
	}
	if r.LB > r.Size || r.Size > r.NUB {
		t.Fatalf("bound sandwich violated: lb=%d size=%d nub=%d", r.LB, r.Size, r.NUB)
	}
}

func TestSynthesizeFig4(t *testing.T) {
	// f = cd + c'd' + abe + a'b'e': the paper's minimum is 3×4 = 12.
	f := cube.NewCover(5,
		cube.FromLiterals([]int{2, 3}, nil),
		cube.FromLiterals(nil, []int{2, 3}),
		cube.FromLiterals([]int{0, 1, 4}, nil),
		cube.FromLiterals(nil, []int{0, 1, 4}))
	r, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 12 {
		t.Fatalf("size = %d (%v), want 12 (paper's 3×4 minimum)", r.Size, r.Grid)
	}
	if r.LB != 12 {
		t.Fatalf("lb = %d, want 12", r.LB)
	}
	if !r.MatchedLB {
		t.Fatal("solution at the lower bound must be flagged MatchedLB")
	}
	if r.NUB > 15 {
		t.Fatalf("nub = %d, want ≤ 15 (paper's initial upper bound)", r.NUB)
	}
}

func TestSynthesizeConstants(t *testing.T) {
	for _, f := range []cube.Cover{cube.Zero(3), cube.One(3)} {
		r, err := Synthesize(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Size != 1 {
			t.Fatalf("constant should fit one switch, got %d", r.Size)
		}
		if !r.Assignment.Realizes(r.ISOP) {
			t.Fatal("constant mapping wrong")
		}
	}
}

func TestSynthesizeSingleLiteral(t *testing.T) {
	f := cube.NewCover(2, cube.FromLiterals(nil, []int{1}))
	r, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 1 {
		t.Fatalf("size = %d, want 1", r.Size)
	}
}

func TestSynthesizeMajority(t *testing.T) {
	// MAJ3 = ab + ac + bc. A known small lattice exists (Altun & Riedel use
	// MAJ as a running example); just require verification and tight bounds.
	f := cube.NewCover(3,
		cube.FromLiterals([]int{0, 1}, nil),
		cube.FromLiterals([]int{0, 2}, nil),
		cube.FromLiterals([]int{1, 2}, nil))
	r, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Assignment.Realizes(r.ISOP) {
		t.Fatal("MAJ3 result wrong")
	}
	if r.Size > 6 {
		t.Fatalf("MAJ3 size = %d, expected ≤ 6 (2×3 known)", r.Size)
	}
}

func TestCandidates(t *testing.T) {
	gs := candidates(12, 1, 64)
	if len(gs) == 0 {
		t.Fatal("no candidates")
	}
	// Nearest-to-square first, and every candidate maximal within area 12.
	if gs[0].M*gs[0].N != 12 || (gs[0].M != 4 && gs[0].M != 3) {
		t.Fatalf("first candidate should be 3x4 or 4x3, got %v", gs[0])
	}
	for _, g := range gs {
		if g.Cells() > 12 {
			t.Fatalf("candidate %v exceeds area 12", g)
		}
		if g.M*(g.N+1) <= 12 {
			t.Fatalf("candidate %v is not column-maximal", g)
		}
	}
	// The lower bound filters small areas.
	for _, g := range candidates(12, 10, 64) {
		if g.Cells() < 10 {
			t.Fatalf("candidate %v below lb", g)
		}
	}
	// Oversize requests clamp to the cell limit.
	for _, g := range candidates(100, 1, 64) {
		if g.Cells() > 64 {
			t.Fatalf("candidate %v exceeds cell cap", g)
		}
	}
}

func TestPartitionProducts(t *testing.T) {
	f := cube.NewCover(6,
		cube.FromLiterals([]int{0, 1, 2}, nil),
		cube.FromLiterals([]int{3}, nil),
		cube.FromLiterals([]int{4, 5}, nil),
		cube.FromLiterals(nil, []int{0, 3}))
	g, h := partitionProducts(f)
	if len(g.Cubes)+len(h.Cubes) != 4 {
		t.Fatal("products lost in partition")
	}
	if d := len(g.Cubes) - len(h.Cubes); d < -1 || d > 1 {
		t.Fatalf("unbalanced partition: %d vs %d", len(g.Cubes), len(h.Cubes))
	}
	if !g.Or(h).Equiv(f) {
		t.Fatal("partition changed the function")
	}
}

func TestPackParts(t *testing.T) {
	// Pack two single-column parts (a·b and c) and check the function.
	f1 := cube.NewCover(3, cube.FromLiterals([]int{0, 1}, nil))
	f2 := cube.NewCover(3, cube.FromLiterals([]int{2}, nil))
	r1, err := Synthesize(f1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Synthesize(f2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	packed := packParts([]*part{
		{isop: r1.ISOP, dual: r1.DualISOP, sol: r1.Assignment},
		{isop: r2.ISOP, dual: r2.DualISOP, sol: r2.Assignment},
	})
	if !packed.Realizes(f1.Or(f2)) {
		t.Fatalf("packed lattice wrong:\n%s", packed)
	}
}

func TestSynthesizeRandomVerified(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		f := cube.Zero(4)
		for i, k := 0, 2+rng.Intn(2); i < k; i++ {
			var c cube.Cube
			for v := 0; v < 4; v++ {
				switch rng.Intn(3) {
				case 0:
					c = c.WithPos(v)
				case 1:
					c = c.WithNeg(v)
				}
			}
			if c.NumLiterals() > 0 {
				f.Cubes = append(f.Cubes, c)
			}
		}
		if f.IsZero() {
			continue
		}
		r, err := Synthesize(f, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !r.Assignment.Realizes(r.ISOP) {
			t.Fatalf("trial %d: unverified result", trial)
		}
		if r.Size < r.LB || r.Size > r.NUB {
			t.Fatalf("trial %d: size %d outside [%d, %d]", trial, r.Size, r.LB, r.NUB)
		}
		if !r.ISOP.Equiv(f) {
			t.Fatalf("trial %d: ISOP drifted from input", trial)
		}
	}
}

func TestSynthesizeWithSATBudget(t *testing.T) {
	// A tiny conflict budget must still return a verified (bound) result.
	f := cube.NewCover(5,
		cube.FromLiterals([]int{2, 3}, nil),
		cube.FromLiterals(nil, []int{2, 3}),
		cube.FromLiterals([]int{0, 1, 4}, nil),
		cube.FromLiterals(nil, []int{0, 1, 4}))
	opt := Options{}
	opt.Encode.Limits = sat.Limits{MaxConflicts: 1}
	r, err := Synthesize(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Assignment == nil || !r.Assignment.Realizes(r.ISOP) {
		t.Fatal("budgeted run must still return the bound construction")
	}
	if r.Size > r.NUB {
		t.Fatal("budgeted result exceeds initial upper bound")
	}
}

func TestSynthesizeElapsedAndCounters(t *testing.T) {
	f := cube.NewCover(3, cube.FromLiterals([]int{0, 1}, nil), cube.FromLiterals([]int{2}, nil))
	r, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Elapsed <= 0 || r.Elapsed > time.Minute {
		t.Fatalf("elapsed looks wrong: %v", r.Elapsed)
	}
}

// TestParallelSearchDeterministic: under a conflict budget, a synthesis
// run alone and two run side by side (which changes when, and whether,
// LM calls overlap their second orientation) report the same search.
func TestParallelSearchDeterministic(t *testing.T) {
	f := cube.NewCover(5,
		cube.FromLiterals([]int{2, 3}, nil),
		cube.FromLiterals(nil, []int{2, 3}),
		cube.FromLiterals([]int{0, 1, 4}, nil),
		cube.FromLiterals(nil, []int{0, 1, 4}))
	var opt Options
	opt.Encode.Limits.MaxConflicts = 50
	summary := func(r Result) string {
		return fmt.Sprintf("size=%d lm=%d added=%d iters=%d grids=%v",
			r.Size, r.LMSolved, r.ClausesAdded, r.CegarIters, r.GridsProbed)
	}
	seq, err := Synthesize(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var par [2]Result
	var errs [2]error
	for i := range par {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			par[i], errs[i] = Synthesize(f, opt)
		}(i)
	}
	wg.Wait()
	for i := range par {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got, want := summary(par[i]), summary(seq); got != want {
			t.Fatalf("side-by-side run %d changed the search:\n got %s\nwant %s", i, got, want)
		}
		if !par[i].Assignment.Realizes(par[i].ISOP) {
			t.Fatal("parallel result unverified")
		}
	}
}

func TestAblationNoImprovedBounds(t *testing.T) {
	f := cube.NewCover(5,
		cube.FromLiterals([]int{2, 3}, nil),
		cube.FromLiterals(nil, []int{2, 3}),
		cube.FromLiterals([]int{0, 1, 4}, nil),
		cube.FromLiterals(nil, []int{0, 1, 4}))
	plain, err := Synthesize(f, Options{DisableImprovedBounds: true, DisableDS: true})
	if err != nil {
		t.Fatal(err)
	}
	improved, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NUB < improved.NUB {
		t.Fatalf("improved bounds should not be worse: oub-run nub=%d improved nub=%d",
			plain.NUB, improved.NUB)
	}
	// Both searches still land on the same minimum for this easy instance.
	if plain.Size != improved.Size {
		t.Fatalf("searches disagree: %d vs %d", plain.Size, improved.Size)
	}
}

func TestBudgetRespected(t *testing.T) {
	// A hard-ish instance with a tiny wall-clock budget must return fast
	// with a verified (bound-level) result.
	f := cube.NewCover(5,
		cube.FromLiterals([]int{2, 3}, nil),
		cube.FromLiterals(nil, []int{2, 3}),
		cube.FromLiterals([]int{0, 1, 4}, nil),
		cube.FromLiterals(nil, []int{0, 1, 4}))
	start := time.Now()
	r, err := Synthesize(f, Options{Budget: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("budget ignored: %v", elapsed)
	}
	if r.Assignment == nil || !r.Assignment.Realizes(r.ISOP) {
		t.Fatal("budgeted run must still return a verified incumbent")
	}
}

func TestCegarThroughCore(t *testing.T) {
	f := cube.NewCover(4,
		cube.FromLiterals([]int{0, 1, 2, 3}, nil),
		cube.FromLiterals(nil, []int{0, 1, 2, 3}))
	r, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 8 {
		t.Fatalf("CEGAR-backed synthesis size = %d, want 8", r.Size)
	}
	if r.LMSolved == 0 || r.CegarIters < int64(r.LMSolved) {
		t.Fatalf("every LM solve must run the refinement loop: %d solves, %d iterations",
			r.LMSolved, r.CegarIters)
	}
}
