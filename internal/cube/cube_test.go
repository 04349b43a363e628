package cube

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCubeBasics(t *testing.T) {
	c := FromLiterals([]int{0, 2}, []int{1})
	if c.NumLiterals() != 3 {
		t.Fatalf("NumLiterals = %d, want 3", c.NumLiterals())
	}
	if !c.HasPos(0) || !c.HasPos(2) || !c.HasNeg(1) {
		t.Fatal("literal membership wrong")
	}
	if c.HasPos(1) || c.HasNeg(0) {
		t.Fatal("phantom literal")
	}
	if c.IsContradiction() || c.IsTop() {
		t.Fatal("classification wrong")
	}
	if got := c.String(); got != "x0&!x1&x2" {
		t.Fatalf("String = %q", got)
	}
	if got := c.Format([]string{"a", "b", "c"}); got != "a&!b&c" {
		t.Fatalf("Format = %q", got)
	}
}

func TestCubeEval(t *testing.T) {
	c := FromLiterals([]int{0}, []int{1}) // x0 & !x1
	cases := []struct {
		point uint64
		want  bool
	}{
		{0b00, false},
		{0b01, true},
		{0b10, false},
		{0b11, false},
		{0b101, true}, // irrelevant variable set
	}
	for _, tc := range cases {
		if got := c.Eval(tc.point); got != tc.want {
			t.Errorf("Eval(%b) = %v, want %v", tc.point, got, tc.want)
		}
	}
}

func TestCubeContainsIntersect(t *testing.T) {
	ab := FromLiterals([]int{0, 1}, nil)
	a := FromLiterals([]int{0}, nil)
	if !a.Contains(ab) {
		t.Fatal("a should contain ab (ab implies a)")
	}
	if ab.Contains(a) {
		t.Fatal("ab should not contain a")
	}
	if !Top().Contains(ab) {
		t.Fatal("top contains everything")
	}
	r, ok := a.Intersect(FromLiterals(nil, []int{1}))
	if !ok || r != FromLiterals([]int{0}, []int{1}) {
		t.Fatalf("Intersect = %v, %v", r, ok)
	}
	if _, ok := a.Intersect(FromLiterals(nil, []int{0})); ok {
		t.Fatal("a & !a should be contradictory")
	}
}

func TestConsensus(t *testing.T) {
	// ab + a'c has consensus bc on variable a.
	c1 := FromLiterals([]int{0, 1}, nil)
	c2 := FromLiterals([]int{2}, []int{0})
	r, ok := c1.Consensus(c2)
	if !ok || r != FromLiterals([]int{1, 2}, nil) {
		t.Fatalf("Consensus = %v, %v", r, ok)
	}
	// Distance 2: no consensus.
	c3 := FromLiterals(nil, []int{0, 1})
	if _, ok := c1.Consensus(c3); ok {
		t.Fatal("distance-2 cubes must not have a consensus")
	}
}

func TestCofactor(t *testing.T) {
	c := FromLiterals([]int{0, 1}, nil)
	r, ok := c.Cofactor(0, true)
	if !ok || r != FromLiterals([]int{1}, nil) {
		t.Fatalf("Cofactor(0,1) = %v, %v", r, ok)
	}
	if _, ok := c.Cofactor(0, false); ok {
		t.Fatal("Cofactor against literal must vanish")
	}
}

func xorFunc(n int) Cover {
	// Parity of n variables as a canonical SOP (2^(n-1) minterm cubes).
	f := Zero(n)
	for p := uint64(0); p < 1<<uint(n); p++ {
		ones := 0
		for v := 0; v < n; v++ {
			if p&(1<<uint(v)) != 0 {
				ones++
			}
		}
		if ones%2 == 1 {
			var c Cube
			for v := 0; v < n; v++ {
				if p&(1<<uint(v)) != 0 {
					c = c.WithPos(v)
				} else {
					c = c.WithNeg(v)
				}
			}
			f.Cubes = append(f.Cubes, c)
		}
	}
	return f
}

func TestTautology(t *testing.T) {
	if !One(3).Tautology() {
		t.Fatal("One must be a tautology")
	}
	if Zero(3).Tautology() {
		t.Fatal("Zero must not be a tautology")
	}
	// x + !x is a tautology.
	f := NewCover(1, FromLiterals([]int{0}, nil), FromLiterals(nil, []int{0}))
	if !f.Tautology() {
		t.Fatal("x + !x must be a tautology")
	}
	// Parity plus its complement is a tautology.
	n := 4
	g := xorFunc(n).Or(xorFunc(n).Complement())
	if !g.Tautology() {
		t.Fatal("f + !f must be a tautology")
	}
	if xorFunc(n).Tautology() {
		t.Fatal("parity is not a tautology")
	}
}

func TestComplementSemantics(t *testing.T) {
	fns := []Cover{
		Zero(3), One(3), xorFunc(3),
		NewCover(3, FromLiterals([]int{0, 1}, nil), FromLiterals([]int{2}, []int{0})),
	}
	for _, f := range fns {
		g := f.Complement()
		for p := uint64(0); p < 1<<uint(f.N); p++ {
			if f.Eval(p) == g.Eval(p) {
				t.Fatalf("complement wrong at point %b for %v", p, f)
			}
		}
	}
}

func TestDualSemantics(t *testing.T) {
	f := NewCover(4,
		FromLiterals([]int{0, 1, 2, 3}, nil),
		FromLiterals(nil, []int{0, 1, 2, 3}))
	d := f.Dual()
	for p := uint64(0); p < 16; p++ {
		want := !f.Eval(^p & 15)
		if d.Eval(p) != want {
			t.Fatalf("dual wrong at %b", p)
		}
	}
}

func TestDualMatchesExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		f := randomCover(rng, 5, 4)
		a := f.Dual()
		b := f.DualByExpansion()
		if !a.Equiv(b) {
			t.Fatalf("Dual and DualByExpansion disagree on %v:\n%v\nvs\n%v", f, a, b)
		}
	}
}

func TestAbsorb(t *testing.T) {
	a := FromLiterals([]int{0}, nil)
	ab := FromLiterals([]int{0, 1}, nil)
	f := NewCover(2, ab, a, ab)
	g := f.Absorb()
	if len(g.Cubes) != 1 || g.Cubes[0] != a {
		t.Fatalf("Absorb = %v", g)
	}
}

func TestAndOr(t *testing.T) {
	a := NewCover(2, FromLiterals([]int{0}, nil))
	b := NewCover(2, FromLiterals([]int{1}, nil))
	and := a.And(b)
	if len(and.Cubes) != 1 || and.Cubes[0] != FromLiterals([]int{0, 1}, nil) {
		t.Fatalf("And = %v", and)
	}
	or := a.Or(b)
	if len(or.Cubes) != 2 {
		t.Fatalf("Or = %v", or)
	}
	// x & !x = 0
	notA := NewCover(2, FromLiterals(nil, []int{0}))
	if !a.And(notA).IsZero() {
		t.Fatal("x & !x must be zero")
	}
}

func TestCoversCube(t *testing.T) {
	// f = ab + a'  covers cube b? f(b=1): a=1 -> 1; a=0 -> 1. Yes.
	f := NewCover(2, FromLiterals([]int{0, 1}, nil), FromLiterals(nil, []int{0}))
	if !f.CoversCube(FromLiterals([]int{1}, nil)) {
		t.Fatal("f must cover b")
	}
	if f.CoversCube(FromLiterals([]int{0}, nil)) {
		t.Fatal("f must not cover a")
	}
}

func TestDegreeAndCounts(t *testing.T) {
	f := NewCover(4,
		FromLiterals([]int{0, 1, 2}, nil),
		FromLiterals([]int{3}, nil))
	if f.Degree() != 3 || f.MinDegree() != 1 || f.NumLiterals() != 4 {
		t.Fatalf("degree stats wrong: %d %d %d", f.Degree(), f.MinDegree(), f.NumLiterals())
	}
}

func TestMinterms(t *testing.T) {
	f := NewCover(2, FromLiterals([]int{0}, nil)) // x0
	pts := f.Minterms()
	if len(pts) != 2 || pts[0] != 1 || pts[1] != 3 {
		t.Fatalf("Minterms = %v", pts)
	}
	if f.CountOnes() != 2 {
		t.Fatalf("CountOnes = %d", f.CountOnes())
	}
}

func randomCube(rng *rand.Rand, n int) Cube {
	var c Cube
	for v := 0; v < n; v++ {
		switch rng.Intn(3) {
		case 0:
			c = c.WithPos(v)
		case 1:
			c = c.WithNeg(v)
		}
	}
	return c
}

func randomCover(rng *rand.Rand, n, k int) Cover {
	f := Zero(n)
	m := 1 + rng.Intn(k)
	for i := 0; i < m; i++ {
		f.Cubes = append(f.Cubes, randomCube(rng, n))
	}
	return f
}

// TestAbsorbAllocatesOnce pins Absorb to one allocation, the copy it
// sorts and filters in place, and checks that its result owns that copy:
// appending to it leaves the input alone.
func TestAbsorbAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := Zero(6)
	for i := 0; i < 24; i++ {
		var pos, neg []int
		for v := 0; v < 6; v++ {
			switch rng.Intn(3) {
			case 0:
				pos = append(pos, v)
			case 1:
				neg = append(neg, v)
			}
		}
		f.Cubes = append(f.Cubes, FromLiterals(pos, neg))
	}
	f.Cubes = append(f.Cubes, f.Cubes[:4]...) // duplicates
	if n := testing.AllocsPerRun(50, func() { f.Absorb() }); n > 1 {
		t.Errorf("Absorb allocates %v times per call, want 1", n)
	}
	in := append([]Cube(nil), f.Cubes...)
	g := f.Absorb()
	_ = append(g.Cubes, FromLiterals([]int{0}, nil))
	for i := range in {
		if f.Cubes[i] != in[i] {
			t.Fatalf("Absorb's result aliases its input at %d", i)
		}
	}
}

// Property: absorption never changes the function.
func TestPropAbsorbPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		f := randomCover(r, 6, 6)
		g := f.Absorb()
		for p := uint64(0); p < 64; p++ {
			if f.Eval(p) != g.Eval(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: dual is an involution, dual(dual(f)) ≡ f.
func TestPropDualInvolution(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomCover(r, 5, 5)
		return f.Dual().Dual().Equiv(f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: complement is pointwise correct.
func TestPropComplementPointwise(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomCover(r, 6, 6)
		g := f.Complement()
		for p := uint64(0); p < 64; p++ {
			if f.Eval(p) == g.Eval(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan — dual distributes AND over OR.
func TestPropDualDeMorgan(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomCover(r, 4, 3)
		g := randomCover(r, 4, 3)
		lhs := f.Or(g).Dual()
		rhs := f.Dual().And(g.Dual())
		return lhs.Equiv(rhs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: Equiv agrees with exhaustive evaluation.
func TestPropEquivMatchesTruthTable(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomCover(r, 5, 4)
		g := randomCover(r, 5, 4)
		same := true
		for p := uint64(0); p < 32; p++ {
			if f.Eval(p) != g.Eval(p) {
				same = false
				break
			}
		}
		return f.Equiv(g) == same
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonical(t *testing.T) {
	a := FromLiterals([]int{0}, nil)
	b := FromLiterals([]int{1}, nil)
	f := NewCover(2, b, a, b)
	g := f.Canonical()
	if len(g.Cubes) != 2 {
		t.Fatalf("Canonical dedup failed: %v", g)
	}
	if g.Cubes[0] != a || g.Cubes[1] != b {
		t.Fatalf("Canonical order wrong: %v", g)
	}
}

func TestFormatCover(t *testing.T) {
	if got := Zero(2).String(); got != "0" {
		t.Fatalf("Zero string = %q", got)
	}
	if got := One(2).String(); got != "1" {
		t.Fatalf("One string = %q", got)
	}
}
