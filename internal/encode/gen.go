package encode

import (
	"github.com/lattice-tools/janus/internal/cnf"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/sat"
)

// sink receives the variables and clauses of one grid's LM encoding. The
// generator sorts its clauses into two kinds. A plain clause is satisfied
// by the all-false assignment of the generator's own fresh variables
// (mapping, switch-state, path and pair variables); a forcing clause
// demands something positive about the grid: an at-least-one over a
// cell's mapping choices, or an OR over paths, pairs or switch states.
//
// A cnf.Builder (builderSink) takes both kinds as they are: the paper's
// monolithic formulation. A pool skeleton (gridSkeleton) prefixes every
// forcing clause with the negation of its grid's activation literal, so
// the grid binds only while that literal is assumed and every other
// grid's clauses are satisfiable outright (see SharedPool).
type sink interface {
	newVar() sat.Lit
	add(lits ...sat.Lit)
	force(lits ...sat.Lit)
}

// builderSink writes into a cnf.Builder, forcing clauses unguarded.
type builderSink struct{ b *cnf.Builder }

func (s builderSink) newVar() sat.Lit       { return s.b.NewVar("") }
func (s builderSink) add(lits ...sat.Lit)   { s.b.Add(lits...) }
func (s builderSink) force(lits ...sat.Lit) { s.b.Add(lits...) }

// gridEnc is the one LM clause generator: one cover encoded on one grid
// in one orientation. newGridEnc writes the entry-independent skeleton;
// entry constrains one truth-table point, so the refinement loop can grow
// the formula one counterexample at a time and the monolithic formulation
// is the skeleton plus every entry.
type gridEnc struct {
	out     sink
	g       lattice.Grid
	tl      []targetLit
	paths   []lattice.Path // memo-shared; read-only
	mapVars [][]sat.Lit    // [cell][tlIdx]
	dual    bool
	buf     []sat.Lit // clause scratch; every sink copies what it keeps
}

// newGridEnc writes the entry-independent skeleton of the LM encoding:
// mapping variables with exactly-one per cell, the degree and
// strict-product constraints, and symmetry breaking.
func newGridEnc(out sink, enc cube.Cover, g lattice.Grid, dual bool, tl []targetLit, opt Options) *gridEnc {
	e := &gridEnc{out: out, g: g, tl: tl, dual: dual, paths: memo.Paths(g, dual)}
	cells := g.Cells()

	// Mapping variables with exactly-one per cell.
	e.mapVars = make([][]sat.Lit, cells)
	for cell := 0; cell < cells; cell++ {
		row := make([]sat.Lit, len(tl))
		for j := range row {
			row[j] = out.newVar()
		}
		e.mapVars[cell] = row
		out.force(row...)
		for i := 0; i < len(row); i++ {
			for j := i + 1; j < len(row); j++ {
				out.add(row[i].Not(), row[j].Not())
			}
		}
	}

	if !opt.DisableDegree {
		e.degreeConstraints(enc)
	}
	if opt.StrictProducts {
		e.strictProducts(enc)
	}
	if !opt.DisableSymmetry {
		e.symmetryBreak()
	}
	return e
}

// entry constrains one truth-table point t of the encoded function, whose
// value there is val: per-entry switch-state variables Y linked to the
// mapping choice, then the off-entry path clauses (Fig. 3(a)) or the
// on-entry path disjunction plus connectivity facts (Fig. 3(b)).
func (e *gridEnc) entry(t uint64, val bool, opt Options) {
	cells := e.g.Cells()
	y := make([]sat.Lit, cells)
	for cell := range y {
		y[cell] = e.out.newVar()
	}
	// Link mapping choices to switch states.
	for cell := 0; cell < cells; cell++ {
		for j, tl := range e.tl {
			if tl.Eval(t) {
				e.out.add(e.mapVars[cell][j].Not(), y[cell])
			} else {
				e.out.add(e.mapVars[cell][j].Not(), y[cell].Not())
			}
		}
	}
	if !val {
		// Every path must contain an off switch (Fig. 3(a)).
		for _, path := range e.paths {
			e.buf = e.buf[:0]
			for _, cell := range path.Cells {
				e.buf = append(e.buf, y[cell].Not())
			}
			e.out.add(e.buf...)
		}
		return
	}
	// On entry (Fig. 3(b)): some path fully on.
	or := make([]sat.Lit, len(e.paths))
	for pi, path := range e.paths {
		a := e.out.newVar()
		for _, cell := range path.Cells {
			e.out.add(a.Not(), y[cell])
		}
		or[pi] = a
	}
	e.out.force(or...)
	if !opt.DisableFacts {
		e.facts(y)
	}
}

// symmetryBreak prunes the row-mirror and column-mirror symmetries of the
// lattice. Both mirrors preserve the top–bottom (and left–right)
// connectivity function, so for any solution the orbit of four mirrored
// solutions contains one whose top-left corner choice index is minimal
// among the four corners; demanding choice(0,0) ≤ choice(0,N−1) and
// choice(0,0) ≤ choice(M−1,0) keeps exactly such representatives.
func (e *gridEnc) symmetryBreak() {
	g := e.g
	c00 := g.Cell(0, 0)
	if g.N > 1 {
		e.choiceLE(c00, g.Cell(0, g.N-1))
	}
	if g.M > 1 {
		e.choiceLE(c00, g.Cell(g.M-1, 0))
	}
}

// choiceLE forbids choice(a) > choice(b) over the one-hot mapping
// variables: for every j > k, not (X[a][j] and X[b][k]).
func (e *gridEnc) choiceLE(a, b int) {
	for j := 1; j < len(e.tl); j++ {
		for k := 0; k < j; k++ {
			e.out.add(e.mapVars[a][j].Not(), e.mapVars[b][k].Not())
		}
	}
}

// litChoices indexes the TL set entries a cube's literals allow, plus
// constant 1 when allowOne is set.
func (e *gridEnc) litChoices(c cube.Cube, allowOne bool) []int {
	var idx []int
	for j, tl := range e.tl {
		switch tl.Kind {
		case lattice.Const1:
			if allowOne {
				idx = append(idx, j)
			}
		case lattice.PosVar:
			if c.HasPos(tl.Var) {
				idx = append(idx, j)
			}
		case lattice.NegVar:
			if c.HasNeg(tl.Var) {
				idx = append(idx, j)
			}
		}
	}
	return idx
}

// pathVar allocates a variable z that implies every cell of path maps
// into choices: (¬z ∨ X[cell][j] for j in choices) per cell.
func (e *gridEnc) pathVar(path lattice.Path, choices []int) sat.Lit {
	z := e.out.newVar()
	for _, cell := range path.Cells {
		e.buf = append(e.buf[:0], z.Not())
		for _, j := range choices {
			e.buf = append(e.buf, e.mapVars[cell][j])
		}
		e.out.add(e.buf...)
	}
	return z
}

// strictProducts is the Gange-style approximate restriction: every
// target product must be realized by some sufficiently long path whose
// cells carry only the product's literals or constant 1.
func (e *gridEnc) strictProducts(target cube.Cover) {
	for _, q := range target.Cubes {
		choices := e.litChoices(q, true)
		var or []sat.Lit
		for _, path := range e.paths {
			if path.Len() < q.NumLiterals() {
				continue
			}
			or = append(or, e.pathVar(path, choices))
		}
		if len(or) == 0 {
			// No path can host this product: the grid is unsatisfiable
			// (the empty clause, or in a pool only this grid switched off).
			e.out.force()
			return
		}
		e.out.force(or...)
	}
}

// facts adds the paper's two structural facts for an on entry: (i) every
// rank (row for the primal orientation, column for the dual) holds an on
// switch; (ii) every two consecutive ranks share an on pair in adjacent
// positions (same column for 4-connectivity; row distance ≤ 1 for
// 8-connectivity).
func (e *gridEnc) facts(y []sat.Lit) {
	g := e.g
	ranks, perRank := g.M, g.N
	rankCell := func(rank, i int) int { return g.Cell(rank, i) }
	if e.dual {
		ranks, perRank = g.N, g.M
		rankCell = func(rank, i int) int { return g.Cell(i, rank) }
	}
	// (i) at least one on switch per rank.
	for r := 0; r < ranks; r++ {
		e.buf = e.buf[:0]
		for i := 0; i < perRank; i++ {
			e.buf = append(e.buf, y[rankCell(r, i)])
		}
		e.out.force(e.buf...)
	}
	// (ii) consecutive ranks share an adjacent on pair.
	for r := 0; r+1 < ranks; r++ {
		var or []sat.Lit
		for i := 0; i < perRank; i++ {
			jLo, jHi := i, i
			if e.dual { // 8-connectivity allows diagonal crossings
				jLo, jHi = i-1, i+1
			}
			for j := jLo; j <= jHi; j++ {
				if j < 0 || j >= perRank {
					continue
				}
				pair := e.out.newVar()
				e.out.add(pair.Not(), y[rankCell(r, i)])
				e.out.add(pair.Not(), y[rankCell(r+1, j)])
				or = append(or, pair)
			}
		}
		e.out.force(or...)
	}
}

// degreeConstraints adds the paper's third encoding step: when the
// target degree equals the lattice degree, each maximum-degree product
// must be realized by a maximum-length path whose cells map into the
// product's literals; products longer than the threshold must use an
// equally long path (cells may also map to constant 1).
func (e *gridEnc) degreeConstraints(target cube.Cover) {
	maxPath := 0
	for _, path := range e.paths {
		if path.Len() > maxPath {
			maxPath = path.Len()
		}
	}
	delta := target.Degree()
	for _, q := range target.Cubes {
		nl := q.NumLiterals()
		if nl == delta && delta == maxPath {
			e.realization(q, func(l int) bool { return l == delta }, false)
		} else if nl > longProductThreshold {
			e.realization(q, func(l int) bool { return l >= nl }, true)
		}
	}
}

// realization demands that some path whose length passes fits realizes
// the product q: its cells map into q's literals (or constant 1 when
// allowOne is set). Without a fitting path it adds nothing.
func (e *gridEnc) realization(q cube.Cube, fits func(int) bool, allowOne bool) {
	choices := e.litChoices(q, allowOne)
	var or []sat.Lit
	for _, path := range e.paths {
		if fits(path.Len()) {
			or = append(or, e.pathVar(path, choices))
		}
	}
	if len(or) > 0 {
		e.out.force(or...)
	}
}

// decode extracts the grid's lattice assignment from a SAT model. For the
// dual formulation the constants 0 and 1 are swapped, which by the
// duality theorem turns a realization of f^D on the left–right structure
// into a realization of f on the top–bottom structure.
func (e *gridEnc) decode(s *sat.Solver) *lattice.Assignment {
	a := lattice.NewAssignment(e.g)
	for cell := range e.mapVars {
		for j, mv := range e.mapVars[cell] {
			if s.Model(mv.Var()) {
				ent := e.tl[j]
				if e.dual {
					switch ent.Kind {
					case lattice.Const0:
						ent = targetLit{Kind: lattice.Const1}
					case lattice.Const1:
						ent = targetLit{Kind: lattice.Const0}
					}
				}
				a.Entries[cell] = ent
				break
			}
		}
	}
	return a
}
