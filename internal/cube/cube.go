// Package cube implements cube and sum-of-products (SOP) algebra over
// single-output Boolean functions with up to 64 variables.
//
// A Cube is a conjunction of literals stored as two bit masks (positive and
// negative literals). A Cover is a disjunction of cubes, i.e. an SOP form.
// The package provides the classical two-level operations needed by a logic
// minimizer and by lattice synthesis: containment, intersection, cofactors,
// unate-recursive tautology and complementation, dualization, and SOP
// multiplication with absorption.
package cube

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// MaxVars is the maximum number of input variables supported by a Cube.
const MaxVars = 64

// Cube is a product (conjunction) of literals over variables 0..n-1.
// Bit v of Pos set means the positive literal x_v appears; bit v of Neg set
// means the complemented literal x̄_v appears. A cube with Pos&Neg != 0 is
// contradictory (always 0). The empty cube (Pos == Neg == 0) is the constant
// 1 product.
type Cube struct {
	Pos uint64
	Neg uint64
}

// Top returns the constant-1 cube (no literals).
func Top() Cube { return Cube{} }

// FromLiterals builds a cube from explicit literal lists.
func FromLiterals(pos, neg []int) Cube {
	var c Cube
	for _, v := range pos {
		c.Pos |= 1 << uint(v)
	}
	for _, v := range neg {
		c.Neg |= 1 << uint(v)
	}
	return c
}

// IsContradiction reports whether the cube contains both x and x̄ for some
// variable and therefore denotes the constant-0 function.
func (c Cube) IsContradiction() bool { return c.Pos&c.Neg != 0 }

// IsTop reports whether the cube has no literals (constant 1).
func (c Cube) IsTop() bool { return c.Pos == 0 && c.Neg == 0 }

// Support returns the mask of variables mentioned by the cube.
func (c Cube) Support() uint64 { return c.Pos | c.Neg }

// NumLiterals returns the number of literals in the cube.
func (c Cube) NumLiterals() int { return bits.OnesCount64(c.Pos) + bits.OnesCount64(c.Neg) }

// HasPos reports whether x_v appears positively.
func (c Cube) HasPos(v int) bool { return c.Pos&(1<<uint(v)) != 0 }

// HasNeg reports whether x_v appears complemented.
func (c Cube) HasNeg(v int) bool { return c.Neg&(1<<uint(v)) != 0 }

// WithPos returns the cube extended with literal x_v.
func (c Cube) WithPos(v int) Cube { c.Pos |= 1 << uint(v); return c }

// WithNeg returns the cube extended with literal x̄_v.
func (c Cube) WithNeg(v int) Cube { c.Neg |= 1 << uint(v); return c }

// Without returns the cube with any literal of variable v removed.
func (c Cube) Without(v int) Cube {
	m := ^(uint64(1) << uint(v))
	c.Pos &= m
	c.Neg &= m
	return c
}

// Contains reports whether c's literal set is a subset of d's, i.e. d ⇒ c
// as Boolean functions (d is a more specific product). Every cube contains
// a contradictory d vacuously only if the masks line up; callers normally
// keep covers free of contradictory cubes.
func (c Cube) Contains(d Cube) bool {
	return c.Pos&^d.Pos == 0 && c.Neg&^d.Neg == 0
}

// Intersect returns the conjunction of two cubes and whether it is
// non-contradictory.
func (c Cube) Intersect(d Cube) (Cube, bool) {
	r := Cube{Pos: c.Pos | d.Pos, Neg: c.Neg | d.Neg}
	return r, !r.IsContradiction()
}

// Distance returns the number of variables in which c and d have opposing
// literals. Distance 0 means the cubes intersect.
func (c Cube) Distance(d Cube) int {
	return bits.OnesCount64(c.Pos&d.Neg | c.Neg&d.Pos)
}

// Consensus returns the consensus cube of c and d if their distance is
// exactly 1, and false otherwise.
func (c Cube) Consensus(d Cube) (Cube, bool) {
	opp := c.Pos&d.Neg | c.Neg&d.Pos
	if bits.OnesCount64(opp) != 1 {
		return Cube{}, false
	}
	r := Cube{Pos: (c.Pos | d.Pos) &^ opp, Neg: (c.Neg | d.Neg) &^ opp}
	if r.IsContradiction() {
		return Cube{}, false
	}
	return r, true
}

// Eval evaluates the cube on the given assignment, where bit v of point is
// the value of variable x_v.
func (c Cube) Eval(point uint64) bool {
	return c.Pos&^point == 0 && c.Neg&point == 0
}

// Cofactor returns the cofactor of the cube with respect to x_v = val and
// whether it is non-zero.
func (c Cube) Cofactor(v int, val bool) (Cube, bool) {
	bit := uint64(1) << uint(v)
	if val {
		if c.Neg&bit != 0 {
			return Cube{}, false
		}
	} else if c.Pos&bit != 0 {
		return Cube{}, false
	}
	return c.Without(v), true
}

// Less provides a deterministic total order on cubes (by literal count,
// then by masks), used to canonicalize covers.
func (c Cube) Less(d Cube) bool { return compareCubes(c, d) < 0 }

// String renders the cube with variable names x0, x1, ... Constant-1 cubes
// render as "1".
func (c Cube) String() string { return c.Format(nil) }

// Format renders the cube using the supplied variable names. Missing names
// fall back to x<i>.
func (c Cube) Format(names []string) string {
	if c.IsTop() {
		return "1"
	}
	if c.IsContradiction() {
		return "0"
	}
	var b strings.Builder
	for v := 0; v < MaxVars; v++ {
		bit := uint64(1) << uint(v)
		if c.Pos&bit == 0 && c.Neg&bit == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('&')
		}
		name := fmt.Sprintf("x%d", v)
		if v < len(names) && names[v] != "" {
			name = names[v]
		}
		if c.Neg&bit != 0 {
			b.WriteByte('!')
		}
		b.WriteString(name)
	}
	return b.String()
}

// SortCubes sorts a cube slice into the canonical order. Less is a total
// order on (literal count, Pos, Neg), so equal cubes are identical and any
// sort gives the same slice.
func SortCubes(cs []Cube) {
	slices.SortFunc(cs, compareCubes)
}

// compareCubes is the canonical order as a three-way comparison.
func compareCubes(c, d Cube) int {
	if r := cmp.Compare(c.NumLiterals(), d.NumLiterals()); r != 0 {
		return r
	}
	if r := cmp.Compare(c.Pos, d.Pos); r != 0 {
		return r
	}
	return cmp.Compare(c.Neg, d.Neg)
}
