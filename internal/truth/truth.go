// Package truth provides dense bitset truth tables for single-output
// Boolean functions with up to 20 inputs. Truth tables are the ground-truth
// oracle used throughout the repository: lattice mappings, minimizer
// outputs, and bound constructions are all verified against them.
package truth

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/lattice-tools/janus/internal/cube"
)

// MaxVars bounds the table size to 2^20 bits (128 KiB).
const MaxVars = 20

// Table is the truth table of a Boolean function of N variables. Bit p of
// the table (p interpreted with bit v = value of x_v) is the function value
// at point p.
type Table struct {
	N    int
	bits []uint64
}

// New returns the constant-0 table over n variables.
func New(n int) *Table {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("truth: unsupported variable count %d", n))
	}
	words := 1
	if n > 6 {
		words = 1 << uint(n-6)
	}
	return &Table{N: n, bits: make([]uint64, words)}
}

// fromCoverCalls counts FromCover invocations process-wide. Building a
// table is exponential in N, so callers are expected to cache (see
// internal/memo); the counter lets tests assert that tables really are
// built once per distinct cover.
var fromCoverCalls atomic.Int64

// FromCoverCalls returns the number of FromCover evaluations so far.
func FromCoverCalls() int64 { return fromCoverCalls.Load() }

// FromCover evaluates an SOP cover into a truth table over cover.N vars.
func FromCover(f cube.Cover) *Table {
	fromCoverCalls.Add(1)
	t := New(f.N)
	for _, c := range f.Cubes {
		t.orCube(c)
	}
	return t
}

// orCube sets every point of the cube.
func (t *Table) orCube(c cube.Cube) {
	size := uint64(1) << uint(t.N)
	free := ^(c.Pos | c.Neg) & (size - 1)
	// Iterate over subsets of the free variables, offset by the fixed part.
	if c.IsContradiction() {
		return
	}
	base := c.Pos & (size - 1)
	sub := uint64(0)
	for {
		t.Set(base|sub, true)
		if sub == free {
			break
		}
		sub = (sub - free) & free
	}
}

// Get returns the function value at point p.
func (t *Table) Get(p uint64) bool {
	return t.bits[p>>6]&(1<<(p&63)) != 0
}

// Set assigns the function value at point p.
func (t *Table) Set(p uint64, v bool) {
	if v {
		t.bits[p>>6] |= 1 << (p & 63)
	} else {
		t.bits[p>>6] &^= 1 << (p & 63)
	}
}

// Words returns the number of 64-point words the table holds: point p
// is bit p%64 of word p/64. A table of fewer than 6 variables is one word
// whose low 2^N bits are its points.
func (t *Table) Words() int { return len(t.bits) }

// Word returns word i of the table. Of a table of fewer than 6
// variables only the low 2^N bits are points.
func (t *Table) Word(i int) uint64 { return t.bits[i] }

// SetWord assigns word i of the table. Bits past the last point of a
// table of fewer than 6 variables are dropped.
func (t *Table) SetWord(i int, w uint64) {
	if t.N < 6 {
		w &= 1<<t.Size() - 1
	}
	t.bits[i] = w
}

// Size returns the number of points, 2^N.
func (t *Table) Size() uint64 { return 1 << uint(t.N) }

// CountOnes returns the on-set size.
func (t *Table) CountOnes() int {
	n := 0
	for i, w := range t.bits {
		if t.N < 6 && i == 0 {
			w &= (1 << (1 << uint(t.N))) - 1
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether two tables denote the same function.
func (t *Table) Equal(u *Table) bool {
	if t.N != u.N {
		return false
	}
	if t.N < 6 {
		mask := uint64(1)<<(1<<uint(t.N)) - 1
		return t.bits[0]&mask == u.bits[0]&mask
	}
	for i := range t.bits {
		if t.bits[i] != u.bits[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	u := New(t.N)
	copy(u.bits, t.bits)
	return u
}

// Complement returns the pointwise complement.
func (t *Table) Complement() *Table {
	u := t.Clone()
	for i := range u.bits {
		u.bits[i] = ^u.bits[i]
	}
	return u
}

// Dual returns the dual function table: d(p) = ¬t(¬p).
func (t *Table) Dual() *Table {
	u := New(t.N)
	mask := t.Size() - 1
	for p := uint64(0); p < t.Size(); p++ {
		u.Set(p, !t.Get(^p&mask))
	}
	return u
}

// IsZero reports whether the function is constant 0.
func (t *Table) IsZero() bool { return t.CountOnes() == 0 }

// IsOne reports whether the function is constant 1.
func (t *Table) IsOne() bool { return t.CountOnes() == int(t.Size()) }

// Minterms returns the on-set points in increasing order.
func (t *Table) Minterms() []uint64 {
	var pts []uint64
	for p := uint64(0); p < t.Size(); p++ {
		if t.Get(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// Maxterms returns the off-set points in increasing order.
func (t *Table) Maxterms() []uint64 {
	var pts []uint64
	for p := uint64(0); p < t.Size(); p++ {
		if !t.Get(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// EquivCover reports whether the cover denotes the same function as t.
func (t *Table) EquivCover(f cube.Cover) bool {
	if f.N != t.N {
		return false
	}
	return t.Equal(FromCover(f))
}

// String renders the table as a 2^N-character 0/1 string, point 0 first.
func (t *Table) String() string {
	b := make([]byte, t.Size())
	for p := uint64(0); p < t.Size(); p++ {
		if t.Get(p) {
			b[p] = '1'
		} else {
			b[p] = '0'
		}
	}
	return string(b)
}
