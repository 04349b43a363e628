// Package cnf provides a small CNF construction layer on top of the SAT
// solver: named variable allocation, cardinality helpers (at-least-one,
// at-most-one, exactly-one), implications, and the Larrabee-style
// product-of-sums formulas of AND/OR gates used by the lattice-mapping
// encoding (the paper's Fig. 2). Formulas can be exported in DIMACS format
// for debugging against external solvers.
package cnf

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/lattice-tools/janus/internal/sat"
)

// Builder accumulates a CNF formula and transfers it into a sat.Solver.
type Builder struct {
	nVars    int
	clauses  [][]sat.Lit
	released int // clause count preserved after ReleaseClauses
	names    map[int]string
}

// NewBuilder returns an empty formula builder.
func NewBuilder() *Builder {
	return &Builder{names: make(map[int]string)}
}

// NewVar allocates a fresh variable with an optional debug name.
func (b *Builder) NewVar(name string) sat.Lit {
	v := b.nVars
	b.nVars++
	if name != "" {
		b.names[v] = name
	}
	return sat.MkLit(v, false)
}

// NumVars returns the number of allocated variables.
func (b *Builder) NumVars() int { return b.nVars }

// NumClauses returns the number of accumulated clauses (including ones
// already released to a solver).
func (b *Builder) NumClauses() int { return b.released + len(b.clauses) }

// Complexity is the paper's SAT problem complexity measure: the number of
// variables times the number of clauses.
func (b *Builder) Complexity() int64 {
	return int64(b.nVars) * int64(b.NumClauses())
}

// ReleaseClauses drops the stored clause bodies (keeping the counters) so
// their memory can be reclaimed once they have been transferred into a
// solver. The builder can no longer be serialized or solved afterwards.
func (b *Builder) ReleaseClauses() {
	b.released = b.NumClauses()
	b.clauses = nil
}

// Name returns the debug name of a literal's variable.
func (b *Builder) Name(l sat.Lit) string {
	if n, ok := b.names[l.Var()]; ok {
		if l.IsNeg() {
			return "!" + n
		}
		return n
	}
	return l.String()
}

// Add appends a clause.
func (b *Builder) Add(lits ...sat.Lit) {
	b.clauses = append(b.clauses, append([]sat.Lit(nil), lits...))
}

// AddImply adds a → b as the clause (¬a ∨ b).
func (b *Builder) AddImply(a, c sat.Lit) { b.Add(a.Not(), c) }

// AddImplyAll adds a → c_i for every consequent.
func (b *Builder) AddImplyAll(a sat.Lit, cs ...sat.Lit) {
	for _, c := range cs {
		b.AddImply(a, c)
	}
}

// AtLeastOne adds the clause (l1 ∨ … ∨ lk).
func (b *Builder) AtLeastOne(lits ...sat.Lit) { b.Add(lits...) }

// AtMostOne adds the pairwise encoding (¬li ∨ ¬lj) for i < j, as in the
// paper's mapping-variable constraints.
func (b *Builder) AtMostOne(lits ...sat.Lit) {
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			b.Add(lits[i].Not(), lits[j].Not())
		}
	}
}

// ExactlyOne adds both AtLeastOne and AtMostOne.
func (b *Builder) ExactlyOne(lits ...sat.Lit) {
	b.AtLeastOne(lits...)
	b.AtMostOne(lits...)
}

// AndGate adds the POS formula of out = AND(ins): (¬out ∨ in_i) for each
// input and (out ∨ ¬in_1 ∨ … ∨ ¬in_k).
func (b *Builder) AndGate(out sat.Lit, ins ...sat.Lit) {
	back := make([]sat.Lit, 0, len(ins)+1)
	back = append(back, out)
	for _, in := range ins {
		b.Add(out.Not(), in)
		back = append(back, in.Not())
	}
	b.Add(back...)
}

// OrGate adds the POS formula of out = OR(ins): (out ∨ ¬in_i) for each
// input and (¬out ∨ in_1 ∨ … ∨ in_k).
func (b *Builder) OrGate(out sat.Lit, ins ...sat.Lit) {
	back := make([]sat.Lit, 0, len(ins)+1)
	back = append(back, out.Not())
	for _, in := range ins {
		b.Add(out, in.Not())
		back = append(back, in)
	}
	b.Add(back...)
}

// AndGateForward adds only out → in_i. Used when the gate output is known
// to be 1 and the reverse clauses are redundant (paper, Fig. 3(b)).
func (b *Builder) AndGateForward(out sat.Lit, ins ...sat.Lit) {
	for _, in := range ins {
		b.Add(out.Not(), in)
	}
}

// SolverFrom builds a sat.Solver holding the accumulated formula.
func (b *Builder) SolverFrom() *sat.Solver {
	s := sat.New(b.nVars)
	b.reserve(s)
	for _, c := range b.clauses {
		if err := s.AddClause(c...); err != nil {
			break // solver already unsat; remaining clauses are irrelevant
		}
	}
	return s
}

// reserve sizes the solver's clause arena for the pending clauses.
func (b *Builder) reserve(s *sat.Solver) {
	lits := 0
	for _, c := range b.clauses {
		lits += len(c)
	}
	s.Reserve(len(b.clauses), lits)
}

// WriteDIMACS serializes the formula in DIMACS CNF format.
func (b *Builder) WriteDIMACS(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "p cnf %d %d\n", b.nVars, len(b.clauses)); err != nil {
		return err
	}
	for _, c := range b.clauses {
		parts := make([]string, 0, len(c)+1)
		for _, l := range c {
			parts = append(parts, l.String())
		}
		parts = append(parts, "0")
		if _, err := fmt.Fprintln(w, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

// String renders the formula as a human-readable conjunction of clauses
// using debug names, e.g. "(x1+x5).(x2+x5)". Clauses render in insertion
// order; literals are sorted for stability.
func (b *Builder) String() string {
	var sb strings.Builder
	for i, c := range b.clauses {
		if i > 0 {
			sb.WriteByte('.')
		}
		ls := append([]sat.Lit(nil), c...)
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		sb.WriteByte('(')
		for j, l := range ls {
			if j > 0 {
				sb.WriteByte('+')
			}
			sb.WriteString(b.Name(l))
		}
		sb.WriteByte(')')
	}
	return sb.String()
}
