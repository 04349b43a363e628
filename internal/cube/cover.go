package cube

import (
	"math/bits"
	"slices"
	"strings"
)

// Cover is a sum of products (SOP) over N variables. The zero value is the
// constant-0 function over zero variables.
type Cover struct {
	N     int
	Cubes []Cube
}

// NewCover returns a cover over n variables with the given cubes,
// contradictions removed.
func NewCover(n int, cubes ...Cube) Cover {
	c := Cover{N: n}
	for _, q := range cubes {
		if !q.IsContradiction() {
			c.Cubes = append(c.Cubes, q)
		}
	}
	return c
}

// Zero returns the constant-0 cover over n variables.
func Zero(n int) Cover { return Cover{N: n} }

// One returns the constant-1 cover over n variables.
func One(n int) Cover { return Cover{N: n, Cubes: []Cube{Top()}} }

// IsZero reports whether the cover has no cubes (syntactic constant 0).
func (f Cover) IsZero() bool { return len(f.Cubes) == 0 }

// IsOne reports whether some cube of the cover is the constant-1 cube.
func (f Cover) IsOne() bool {
	for _, c := range f.Cubes {
		if c.IsTop() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the cover.
func (f Cover) Clone() Cover {
	g := Cover{N: f.N, Cubes: make([]Cube, len(f.Cubes))}
	copy(g.Cubes, f.Cubes)
	return g
}

// Eval evaluates the cover on the given point (bit v = value of x_v).
func (f Cover) Eval(point uint64) bool {
	for _, c := range f.Cubes {
		if c.Eval(point) {
			return true
		}
	}
	return false
}

// Degree returns the maximum number of literals over the cubes of the
// cover (the paper's δ). The degree of the empty cover is 0.
func (f Cover) Degree() int {
	d := 0
	for _, c := range f.Cubes {
		if n := c.NumLiterals(); n > d {
			d = n
		}
	}
	return d
}

// MinDegree returns the minimum number of literals over the cubes, or 0 for
// an empty cover.
func (f Cover) MinDegree() int {
	if len(f.Cubes) == 0 {
		return 0
	}
	d := f.Cubes[0].NumLiterals()
	for _, c := range f.Cubes[1:] {
		if n := c.NumLiterals(); n < d {
			d = n
		}
	}
	return d
}

// NumLiterals returns the total literal count across all cubes.
func (f Cover) NumLiterals() int {
	t := 0
	for _, c := range f.Cubes {
		t += c.NumLiterals()
	}
	return t
}

// Support returns the mask of variables appearing in the cover.
func (f Cover) Support() uint64 {
	var m uint64
	for _, c := range f.Cubes {
		m |= c.Support()
	}
	return m
}

// LiteralSet returns the distinct literals of the cover as (posMask,
// negMask): bit v of posMask set means x_v appears positively somewhere.
func (f Cover) LiteralSet() (pos, neg uint64) {
	for _, c := range f.Cubes {
		pos |= c.Pos
		neg |= c.Neg
	}
	return pos, neg
}

// Absorb removes every cube that is contained in another cube of the cover
// (single-cube containment) along with duplicates, returning a new cover.
// It makes one copy of the cubes, sorts and filters it in place, and
// returns the clipped prefix.
func (f Cover) Absorb() Cover {
	cs := slices.Clone(f.Cubes)
	SortCubes(cs)
	out := cs[:0]
	for _, c := range cs {
		if c.IsContradiction() {
			continue
		}
		redundant := false
		for _, kept := range out {
			if kept.Contains(c) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, c)
		}
	}
	return Cover{N: f.N, Cubes: slices.Clip(out)}
}

// Or returns the disjunction of two covers (with absorption).
func (f Cover) Or(g Cover) Cover {
	n := f.N
	if g.N > n {
		n = g.N
	}
	cs := make([]Cube, 0, len(f.Cubes)+len(g.Cubes))
	cs = append(cs, f.Cubes...)
	cs = append(cs, g.Cubes...)
	return Cover{N: n, Cubes: cs}.Absorb()
}

// And returns the conjunction of two covers (cube-by-cube multiplication
// with absorption).
func (f Cover) And(g Cover) Cover {
	n := f.N
	if g.N > n {
		n = g.N
	}
	var cs []Cube
	for _, a := range f.Cubes {
		for _, b := range g.Cubes {
			if r, ok := a.Intersect(b); ok {
				cs = append(cs, r)
			}
		}
	}
	return Cover{N: n, Cubes: cs}.Absorb()
}

// Cofactor returns the cover cofactored by x_v = val.
func (f Cover) Cofactor(v int, val bool) Cover {
	g := Cover{N: f.N}
	for _, c := range f.Cubes {
		if r, ok := c.Cofactor(v, val); ok {
			g.Cubes = append(g.Cubes, r)
		}
	}
	return g
}

// CofactorCube returns the generalized cofactor f/c used by containment
// checks: each cube of f that intersects c, with c's literals removed.
func (f Cover) CofactorCube(c Cube) Cover {
	g := Cover{N: f.N}
	for _, q := range f.Cubes {
		if q.Pos&c.Neg != 0 || q.Neg&c.Pos != 0 {
			continue // disjoint from c
		}
		g.Cubes = append(g.Cubes, Cube{Pos: q.Pos &^ c.Pos, Neg: q.Neg &^ c.Neg})
	}
	return g
}

// mostBinate picks the splitting variable for unate-recursive procedures:
// the variable occurring in the most cubes with both phases present,
// falling back to the most frequent variable.
func (f Cover) mostBinate() int {
	bestVar, bestScore := -1, -1
	support := f.Support()
	for v := 0; v < f.N; v++ {
		bit := uint64(1) << uint(v)
		if support&bit == 0 {
			continue
		}
		var np, nn int
		for _, c := range f.Cubes {
			if c.Pos&bit != 0 {
				np++
			}
			if c.Neg&bit != 0 {
				nn++
			}
		}
		score := np + nn
		if np > 0 && nn > 0 {
			score += 1 << 20 // strongly prefer binate variables
		}
		if score > bestScore {
			bestScore, bestVar = score, v
		}
	}
	return bestVar
}

// Tautology reports whether the cover is the constant-1 function, using the
// unate-recursive paradigm.
func (f Cover) Tautology() bool {
	if f.IsOne() {
		return true
	}
	if len(f.Cubes) == 0 {
		return false
	}
	// Unate reduction: if some variable appears in only one phase, cubes
	// using it can never help cover the opposite half-space; a unate cover
	// is a tautology iff it contains the constant-1 cube.
	pos, neg := f.LiteralSet()
	binate := pos & neg
	if binate == 0 {
		return false // no constant-1 cube (checked above) and unate
	}
	v := f.mostBinate()
	if v < 0 {
		return false
	}
	return f.Cofactor(v, false).Tautology() && f.Cofactor(v, true).Tautology()
}

// CoversCube reports whether cube c is contained in the cover (c ⇒ f).
func (f Cover) CoversCube(c Cube) bool {
	return f.CofactorCube(c).Tautology()
}

// Covers reports whether g ⇒ f (every cube of g is covered by f).
func (f Cover) Covers(g Cover) bool {
	for _, c := range g.Cubes {
		if !f.CoversCube(c) {
			return false
		}
	}
	return true
}

// Equiv reports whether f and g denote the same Boolean function.
func (f Cover) Equiv(g Cover) bool {
	return f.Covers(g) && g.Covers(f)
}

// Complement returns an SOP cover of ¬f using the unate-recursive
// complementation (Shannon expansion with cube-list merging).
func (f Cover) Complement() Cover {
	return f.complement().Absorb()
}

func (f Cover) complement() Cover {
	if len(f.Cubes) == 0 {
		return One(f.N)
	}
	if f.IsOne() {
		return Zero(f.N)
	}
	if len(f.Cubes) == 1 {
		// De Morgan on a single cube.
		c := f.Cubes[0]
		g := Cover{N: f.N}
		for v := 0; v < f.N; v++ {
			bit := uint64(1) << uint(v)
			if c.Pos&bit != 0 {
				g.Cubes = append(g.Cubes, Cube{Neg: bit})
			}
			if c.Neg&bit != 0 {
				g.Cubes = append(g.Cubes, Cube{Pos: bit})
			}
		}
		return g
	}
	v := f.mostBinate()
	if v < 0 {
		return Zero(f.N)
	}
	c0 := f.Cofactor(v, false).complement()
	c1 := f.Cofactor(v, true).complement()
	g := Cover{N: f.N}
	for _, c := range c0.Cubes {
		if !c.HasPos(v) {
			g.Cubes = append(g.Cubes, c.WithNeg(v))
		}
	}
	for _, c := range c1.Cubes {
		if !c.HasNeg(v) {
			g.Cubes = append(g.Cubes, c.WithPos(v))
		}
	}
	return g.Absorb()
}

// Dual returns the dual function f^D(x) = ¬f(¬x) as an SOP cover, computed
// by complementing f and flipping every literal's polarity.
func (f Cover) Dual() Cover {
	comp := f.Complement()
	g := Cover{N: f.N, Cubes: make([]Cube, len(comp.Cubes))}
	for i, c := range comp.Cubes {
		g.Cubes[i] = Cube{Pos: c.Neg, Neg: c.Pos}
	}
	return g.Absorb()
}

// DualByExpansion computes the dual by interpreting the SOP as a POS (the
// classical definition) and multiplying the clauses out with absorption.
// It is exponential in the worst case but matches Dual on every input and
// is kept as an independent oracle for testing.
func (f Cover) DualByExpansion() Cover {
	if len(f.Cubes) == 0 {
		return One(f.N)
	}
	acc := Cover{N: f.N, Cubes: []Cube{Top()}}
	for _, c := range f.Cubes {
		if c.IsTop() {
			return Zero(f.N)
		}
		var clause []Cube
		for v := 0; v < f.N; v++ {
			bit := uint64(1) << uint(v)
			if c.Pos&bit != 0 {
				clause = append(clause, Cube{Pos: bit})
			}
			if c.Neg&bit != 0 {
				clause = append(clause, Cube{Neg: bit})
			}
		}
		acc = acc.And(Cover{N: f.N, Cubes: clause})
		if acc.IsZero() {
			return acc
		}
	}
	return acc
}

// Minterms enumerates the on-set of the cover as points over n variables.
// It panics if f.N > 24 to avoid runaway enumeration.
func (f Cover) Minterms() []uint64 {
	if f.N > 24 {
		panic("cube: Minterms limited to 24 variables")
	}
	var pts []uint64
	for p := uint64(0); p < 1<<uint(f.N); p++ {
		if f.Eval(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// CountOnes returns the size of the on-set without materializing it, by
// inclusion-exclusion-free enumeration (fast for small N).
func (f Cover) CountOnes() uint64 {
	if f.N > 30 {
		panic("cube: CountOnes limited to 30 variables")
	}
	var n uint64
	for p := uint64(0); p < 1<<uint(f.N); p++ {
		if f.Eval(p) {
			n++
		}
	}
	return n
}

// String renders the cover as a sum of products.
func (f Cover) String() string { return f.Format(nil) }

// Format renders the cover using the supplied variable names.
func (f Cover) Format(names []string) string {
	if len(f.Cubes) == 0 {
		return "0"
	}
	parts := make([]string, len(f.Cubes))
	for i, c := range f.Cubes {
		parts[i] = c.Format(names)
	}
	return strings.Join(parts, " + ")
}

// Canonical returns the cover with cubes sorted in the canonical order and
// duplicates removed. It does not change the function.
func (f Cover) Canonical() Cover {
	g := f.Clone()
	SortCubes(g.Cubes)
	out := g.Cubes[:0]
	var prev Cube
	for i, c := range g.Cubes {
		if i > 0 && c == prev {
			continue
		}
		out = append(out, c)
		prev = c
	}
	g.Cubes = out
	return g
}

// PopCountSupport returns the number of distinct variables used by f.
func (f Cover) PopCountSupport() int { return bits.OnesCount64(f.Support()) }
