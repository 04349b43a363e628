// Package lattice models two-dimensional switching lattices of
// four-terminal switches (Altun & Riedel 2012).
//
// An m×n lattice is a grid of switches; each switch is connected to its
// four neighbours. The lattice function evaluates to 1 when the on
// switches form a 4-connected path between the top and bottom plates. Its
// dual consists of the 8-connected paths between the left and right
// plates.
//
// The products of the lattice function are exactly the *minimal* switch
// sets connecting top to bottom, which this package enumerates as
// chordless (induced) paths: no cell repeats, no two non-consecutive cells
// are adjacent, only the first cell lies in the top row and only the last
// in the bottom row. The same holds for the dual under 8-adjacency with
// the left/right columns. The enumeration reproduces Table I of the paper.
package lattice

import (
	"fmt"
	"math/bits"
	"strings"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/truth"
)

// Grid identifies an m×n lattice: M rows between the top and bottom
// plates, N columns between the left and right plates.
type Grid struct {
	M, N int
}

// Cells returns the number of switches, m·n (the paper's lattice size).
func (g Grid) Cells() int { return g.M * g.N }

// Cell maps (row, col) to the cell index r·N + c.
func (g Grid) Cell(r, c int) int { return r*g.N + c }

// RowCol inverts Cell.
func (g Grid) RowCol(cell int) (r, c int) { return cell / g.N, cell % g.N }

func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.M, g.N) }

// Transpose returns the lattice with rows and columns swapped.
func (g Grid) Transpose() Grid { return Grid{M: g.N, N: g.M} }

func (g Grid) validate() {
	if g.M < 1 || g.N < 1 {
		panic(fmt.Sprintf("lattice: invalid grid %v", g))
	}
}

const maskLimit = 64

// Path is one product of the lattice function (or of its dual): a minimal
// connecting switch set. Cells lists the cells in traversal order; Mask is
// the corresponding bitset (only for lattices with at most 64 cells).
type Path struct {
	Cells []uint16
	Mask  uint64
}

// Len returns the number of switches on the path.
func (p Path) Len() int { return len(p.Cells) }

type pathEnum struct {
	g        Grid
	eight    bool // 8-adjacency (dual enumeration)
	vertical bool // top→bottom when true, left→right otherwise
	useMask  bool
	limit    int64 // abort enumeration once count exceeds this (0 = none)
	stopLen  int   // abort (successfully) once a path this long is found
	onPath   []bool
	cells    []uint16
	emit     func(Path)
	count    int64
	found    bool
}

func (e *pathEnum) aborted() bool { return e.found || (e.limit > 0 && e.count > e.limit) }

// neighbors appends the neighbour cells of (r,c) under the enumerator's
// adjacency into buf.
func (e *pathEnum) neighbors(r, c int, buf []int) []int {
	g := e.g
	push := func(rr, cc int) []int {
		if rr >= 0 && rr < g.M && cc >= 0 && cc < g.N {
			buf = append(buf, g.Cell(rr, cc))
		}
		return buf
	}
	buf = push(r-1, c)
	buf = push(r+1, c)
	buf = push(r, c-1)
	buf = push(r, c+1)
	if e.eight {
		buf = push(r-1, c-1)
		buf = push(r-1, c+1)
		buf = push(r+1, c-1)
		buf = push(r+1, c+1)
	}
	return buf
}

func (e *pathEnum) adjacent(a, b int) bool {
	ra, ca := e.g.RowCol(a)
	rb, cb := e.g.RowCol(b)
	dr, dc := ra-rb, ca-cb
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	if dr > 1 || dc > 1 {
		return false
	}
	if e.eight {
		return dr+dc > 0
	}
	return dr+dc == 1
}

// atStart reports whether the cell lies on the starting plate (top row or
// left column).
func (e *pathEnum) atStart(cell int) bool {
	r, c := e.g.RowCol(cell)
	if e.vertical {
		return r == 0
	}
	return c == 0
}

// atEnd reports whether the cell lies on the finishing plate (bottom row
// or right column).
func (e *pathEnum) atEnd(cell int) bool {
	r, c := e.g.RowCol(cell)
	if e.vertical {
		return r == e.g.M-1
	}
	return c == e.g.N-1
}

func (e *pathEnum) run() {
	e.onPath = make([]bool, e.g.Cells())
	var starts []int
	if e.vertical {
		for c := 0; c < e.g.N; c++ {
			starts = append(starts, e.g.Cell(0, c))
		}
	} else {
		for r := 0; r < e.g.M; r++ {
			starts = append(starts, e.g.Cell(r, 0))
		}
	}
	for _, s := range starts {
		e.cells = append(e.cells, uint16(s))
		e.onPath[s] = true
		if e.atEnd(s) {
			e.record()
		} else {
			e.extend(s)
		}
		e.onPath[s] = false
		e.cells = e.cells[:0]
	}
}

func (e *pathEnum) record() {
	e.count++
	if e.stopLen > 0 && len(e.cells) >= e.stopLen {
		e.found = true
	}
	if e.emit == nil {
		return
	}
	p := Path{Cells: append([]uint16(nil), e.cells...)}
	if e.useMask {
		for _, c := range e.cells {
			p.Mask |= 1 << uint(c)
		}
	}
	e.emit(p)
}

func (e *pathEnum) extend(cur int) {
	if e.aborted() {
		return
	}
	r, c := e.g.RowCol(cur)
	var buf [8]int
	for _, nxt := range e.neighbors(r, c, buf[:0]) {
		if e.onPath[nxt] {
			continue
		}
		if e.atStart(nxt) {
			continue // only the first cell may touch the start plate
		}
		// Chordless: the new cell may be adjacent only to the current tip.
		chord := false
		for _, pc := range e.cells {
			if int(pc) != cur && e.adjacent(int(pc), nxt) {
				chord = true
				break
			}
		}
		if chord {
			continue
		}
		e.cells = append(e.cells, uint16(nxt))
		e.onPath[nxt] = true
		if e.atEnd(nxt) {
			e.record() // minimality: stop at the first end-plate contact
		} else {
			e.extend(nxt)
		}
		e.onPath[nxt] = false
		e.cells = e.cells[:len(e.cells)-1]
	}
}

// Paths enumerates the products of the lattice function f_{m×n}: minimal
// 4-connected top–bottom switch sets.
func (g Grid) Paths() []Path {
	g.validate()
	var out []Path
	e := pathEnum{g: g, vertical: true, useMask: g.Cells() <= maskLimit,
		emit: func(p Path) { out = append(out, p) }}
	e.run()
	return out
}

// DualPaths enumerates the products of the dual lattice function: minimal
// 8-connected left–right switch sets.
func (g Grid) DualPaths() []Path {
	g.validate()
	var out []Path
	e := pathEnum{g: g, eight: true, vertical: false, useMask: g.Cells() <= maskLimit,
		emit: func(p Path) { out = append(out, p) }}
	e.run()
	return out
}

// PathsOf unifies Paths and DualPaths behind one orientation flag, the
// shape every encoding-layer caller wants (and the key the process-wide
// path cache in internal/memo is indexed by).
func (g Grid) PathsOf(dual bool) []Path {
	if dual {
		return g.DualPaths()
	}
	return g.Paths()
}

// FunctionOf unifies Function and DualFunction behind one orientation
// flag.
func (g Grid) FunctionOf(dual bool) cube.Cover {
	if dual {
		return g.DualFunction()
	}
	return g.Function()
}

// CountPaths returns the number of products of f_{m×n} without storing
// them (Table I, top entries).
func (g Grid) CountPaths() int64 {
	g.validate()
	e := pathEnum{g: g, vertical: true}
	e.run()
	return e.count
}

// CountDualPaths returns the number of products of the dual of f_{m×n}
// (Table I, bottom entries).
func (g Grid) CountDualPaths() int64 {
	g.validate()
	e := pathEnum{g: g, eight: true, vertical: false}
	e.run()
	return e.count
}

// HasPathOfLen reports whether the lattice has a minimal path (dual
// selects the 8-connected left–right enumeration) with at least k
// switches. The search inspects at most a bounded number of paths; when
// the bound is hit without an answer it conservatively returns true, so
// a false result is always definitive.
func (g Grid) HasPathOfLen(k int, dual bool) bool {
	if k <= 0 {
		return true
	}
	if k > g.Cells() {
		return false
	}
	g.validate()
	e := pathEnum{g: g, eight: dual, vertical: !dual, limit: 20000, stopLen: k}
	e.run()
	if e.found {
		return true
	}
	return e.count > e.limit // bound hit: unknown, do not refute
}

// CountPathsLimited counts minimal paths (dual selects the 8-connected
// left–right enumeration) but gives up once the count exceeds limit,
// returning a value greater than limit in that case. Used to reject
// lattice formulations that would be too large to encode without paying
// for a full enumeration.
func (g Grid) CountPathsLimited(limit int64, dual bool) int64 {
	g.validate()
	e := pathEnum{g: g, eight: dual, vertical: !dual, limit: limit}
	e.run()
	return e.count
}

// Function returns the lattice function as an SOP cover whose variables
// are the cell indexes. Limited to lattices with at most 64 cells.
func (g Grid) Function() cube.Cover {
	if g.Cells() > maskLimit {
		panic("lattice: Function limited to 64 cells")
	}
	f := cube.Zero(g.Cells())
	for _, p := range g.Paths() {
		f.Cubes = append(f.Cubes, cube.Cube{Pos: p.Mask})
	}
	return f
}

// DualFunction returns the dual lattice function as an SOP cover over the
// cell indexes.
func (g Grid) DualFunction() cube.Cover {
	if g.Cells() > maskLimit {
		panic("lattice: DualFunction limited to 64 cells")
	}
	f := cube.Zero(g.Cells())
	for _, p := range g.DualPaths() {
		f.Cubes = append(f.Cubes, cube.Cube{Pos: p.Mask})
	}
	return f
}

// EntryKind classifies what is assigned to a switch's control input.
type EntryKind uint8

const (
	// Const0 keeps the switch permanently off.
	Const0 EntryKind = iota
	// Const1 keeps the switch permanently on.
	Const1
	// PosVar drives the switch with input variable x_Var.
	PosVar
	// NegVar drives the switch with the complement of x_Var.
	NegVar
)

// Entry is the control-input assignment of one switch.
type Entry struct {
	Kind EntryKind
	Var  int
}

// Eval returns the switch state under the given input point.
func (e Entry) Eval(point uint64) bool {
	switch e.Kind {
	case Const0:
		return false
	case Const1:
		return true
	case PosVar:
		return point&(1<<uint(e.Var)) != 0
	default:
		return point&(1<<uint(e.Var)) == 0
	}
}

// projection[v] is input v's 64-point word for v < 6: bit i is bit v of i.
var projection = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// word returns the switch state over the 64 points of truth-table word w,
// points 64w to 64w+63: bit i is the state at point 64w+i. An input below
// 6 varies inside the word as its projection; an input from 6 on is
// constant across the word, bit v−6 of w.
func (e Entry) word(w uint64) uint64 {
	var x uint64
	switch {
	case e.Kind == Const0:
		return 0
	case e.Kind == Const1:
		return ^uint64(0)
	case e.Var < 6:
		x = projection[e.Var]
	case w>>uint(e.Var-6)&1 == 1:
		x = ^uint64(0)
	}
	if e.Kind == NegVar {
		x = ^x
	}
	return x
}

// Complement returns the entry computing the complemented control value.
func (e Entry) Complement() Entry {
	switch e.Kind {
	case Const0:
		return Entry{Kind: Const1}
	case Const1:
		return Entry{Kind: Const0}
	case PosVar:
		return Entry{Kind: NegVar, Var: e.Var}
	default:
		return Entry{Kind: PosVar, Var: e.Var}
	}
}

// Format renders the entry with the given variable names.
func (e Entry) Format(names []string) string {
	switch e.Kind {
	case Const0:
		return "0"
	case Const1:
		return "1"
	}
	name := fmt.Sprintf("x%d", e.Var)
	if e.Var < len(names) && names[e.Var] != "" {
		name = names[e.Var]
	}
	if e.Kind == NegVar {
		return "!" + name
	}
	return name
}

// Assignment is a fully specified lattice implementation: a grid plus one
// entry per switch (row-major).
type Assignment struct {
	Grid    Grid
	Entries []Entry
}

// NewAssignment returns an assignment with every switch set to Const0.
func NewAssignment(g Grid) *Assignment {
	g.validate()
	return &Assignment{Grid: g, Entries: make([]Entry, g.Cells())}
}

// Set assigns the switch at (r, c).
func (a *Assignment) Set(r, c int, e Entry) { a.Entries[a.Grid.Cell(r, c)] = e }

// At returns the entry at (r, c).
func (a *Assignment) At(r, c int) Entry { return a.Entries[a.Grid.Cell(r, c)] }

// Size returns the number of switches.
func (a *Assignment) Size() int { return a.Grid.Cells() }

// EvalConnectivity evaluates the implemented function at the input point
// by switching the lattice and testing 4-connected top–bottom
// reachability. This is the physical ground truth used to verify every
// synthesis result.
func (a *Assignment) EvalConnectivity(point uint64) bool {
	g := a.Grid
	on := make([]bool, g.Cells())
	for i, e := range a.Entries {
		on[i] = e.Eval(point)
	}
	// BFS from on-cells of the top row.
	queue := make([]int, 0, g.Cells())
	seen := make([]bool, g.Cells())
	for c := 0; c < g.N; c++ {
		cell := g.Cell(0, c)
		if on[cell] {
			queue = append(queue, cell)
			seen[cell] = true
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		r, c := g.RowCol(cur)
		if r == g.M-1 {
			return true
		}
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			rr, cc := r+d[0], c+d[1]
			if rr < 0 || rr >= g.M || cc < 0 || cc >= g.N {
				continue
			}
			nxt := g.Cell(rr, cc)
			if on[nxt] && !seen[nxt] {
				seen[nxt] = true
				queue = append(queue, nxt)
			}
		}
	}
	return false
}

// EvalDualConnectivity tests 8-connected left–right reachability of the on
// switches, i.e. the dual plate pair.
func (a *Assignment) EvalDualConnectivity(point uint64) bool {
	g := a.Grid
	on := make([]bool, g.Cells())
	for i, e := range a.Entries {
		on[i] = e.Eval(point)
	}
	queue := make([]int, 0, g.Cells())
	seen := make([]bool, g.Cells())
	for r := 0; r < g.M; r++ {
		cell := g.Cell(r, 0)
		if on[cell] {
			queue = append(queue, cell)
			seen[cell] = true
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		r, c := g.RowCol(cur)
		if c == g.N-1 {
			return true
		}
		for dr := -1; dr <= 1; dr++ {
			for dc := -1; dc <= 1; dc++ {
				if dr == 0 && dc == 0 {
					continue
				}
				rr, cc := r+dr, c+dc
				if rr < 0 || rr >= g.M || cc < 0 || cc >= g.N {
					continue
				}
				nxt := g.Cell(rr, cc)
				if on[nxt] && !seen[nxt] {
					seen[nxt] = true
					queue = append(queue, nxt)
				}
			}
		}
	}
	return false
}

// Table evaluates the implemented function over all 2^nInputs points, 64
// at a time (see Word).
func (a *Assignment) Table(nInputs int) *truth.Table {
	t := truth.New(nInputs)
	var buf [floodWords]uint64
	scratch := a.floodScratch(buf[:])
	for w := 0; w < t.Words(); w++ {
		t.SetWord(w, a.flood(uint64(w), scratch))
	}
	return t
}

// Word returns word w of the implemented function's truth table: bit i is
// the function at point 64w+i. One flood fill evaluates all 64 points:
// every switch gets its 64-point word (see Entry.word), the top plate
// reaches every point, and reach spreads through 4-connected on-switches
// to a fixpoint. The OR of the bottom row's reach is the word. It agrees
// with EvalConnectivity at every point, for any grid size and input count.
func (a *Assignment) Word(w int) uint64 {
	var buf [floodWords]uint64
	return a.flood(uint64(w), a.floodScratch(buf[:]))
}

// floodWords is the scratch flood needs for any lattice of at most 64
// switches: two words per cell of its frame, (m+2)(n+2) ≤ 3·64+6 cells.
const floodWords = 2 * (3*maskLimit + 6)

// floodScratch returns room for flood: buf when it is large enough, a new
// slice for a larger lattice.
func (a *Assignment) floodScratch(buf []uint64) []uint64 {
	if n := 2 * (a.Grid.M + 2) * (a.Grid.N + 2); n > len(buf) {
		return make([]uint64, n)
	}
	return buf
}

// flood computes Word(w) in scratch. The lattice sits in a frame one cell
// wider on every side, so every switch has four neighbours: the frame's
// top row is the top plate, reached at every point, and its other cells
// are off and never reached.
func (a *Assignment) flood(w uint64, scratch []uint64) uint64 {
	m, n := a.Grid.M, a.Grid.N
	fw := n + 2 // frame width
	size := (m + 2) * fw
	on, reach := scratch[:size], scratch[size:2*size]
	clear(on)
	clear(reach)
	for r := 0; r < m; r++ {
		for c := 0; c < n; c++ {
			on[(r+1)*fw+c+1] = a.Entries[r*n+c].word(w)
		}
	}
	for i := 0; i < fw; i++ {
		reach[i] = ^uint64(0)
	}
	// A forward sweep carries reach down and right within one pass, a
	// backward sweep up and left; each cell takes its four neighbours'
	// reach either way. Reach only grows, so the sweeps stop once a pair of
	// them changes nothing. They pass over the frame's side cells too,
	// which stay unreached as they are off.
	first, last := fw+1, m*fw+n
	for changed := true; changed; {
		changed = false
		for i := first; i <= last; i++ {
			changed = spread(on, reach, i, fw) || changed
		}
		for i := last; i >= first; i-- {
			changed = spread(on, reach, i, fw) || changed
		}
	}
	var out uint64
	for _, x := range reach[m*fw+1 : m*fw+n+1] {
		out |= x
	}
	return out
}

// spread sets the reach of frame cell i, in a frame fw cells wide, to the
// points where its switch is on and it or a 4-neighbour is reached, and
// reports whether that changed it.
func spread(on, reach []uint64, i, fw int) bool {
	x := (reach[i] | reach[i-fw] | reach[i+fw] | reach[i-1] | reach[i+1]) & on[i]
	if x == reach[i] {
		return false
	}
	reach[i] = x
	return true
}

// Realizes reports whether the assignment implements exactly the function
// denoted by the cover.
func (a *Assignment) Realizes(f cube.Cover) bool {
	return a.Table(f.N).Equal(truth.FromCover(f))
}

// Complement returns the assignment with every entry complemented. By the
// lattice duality theorem, the complemented lattice's 8-connected
// left–right connectivity function is the complement of the original
// top–bottom function — the relationship exploited by the dual encoding.
func (a *Assignment) Complement() *Assignment {
	b := NewAssignment(a.Grid)
	for i, e := range a.Entries {
		b.Entries[i] = e.Complement()
	}
	return b
}

// Transpose returns the assignment reflected along the main diagonal
// (rows become columns).
func (a *Assignment) Transpose() *Assignment {
	b := NewAssignment(a.Grid.Transpose())
	for r := 0; r < a.Grid.M; r++ {
		for c := 0; c < a.Grid.N; c++ {
			b.Set(c, r, a.At(r, c))
		}
	}
	return b
}

// Format renders the assignment as a grid of entry labels, one row per
// line, columns separated by spaces (like the paper's figures).
func (a *Assignment) Format(names []string) string {
	var sb strings.Builder
	width := 1
	labels := make([]string, len(a.Entries))
	for i, e := range a.Entries {
		labels[i] = e.Format(names)
		if len(labels[i]) > width {
			width = len(labels[i])
		}
	}
	for r := 0; r < a.Grid.M; r++ {
		if r > 0 {
			sb.WriteByte('\n')
		}
		for c := 0; c < a.Grid.N; c++ {
			if c > 0 {
				sb.WriteByte(' ')
			}
			l := labels[a.Grid.Cell(r, c)]
			sb.WriteString(l)
			for pad := len(l); pad < width; pad++ {
				sb.WriteByte(' ')
			}
		}
	}
	return sb.String()
}

func (a *Assignment) String() string { return a.Format(nil) }

// MaxPathLen returns the maximum product size (degree) of the lattice
// function, i.e. the longest minimal path.
func (g Grid) MaxPathLen() int {
	max := 0
	e := pathEnum{g: g, vertical: true, emit: func(p Path) {
		if p.Len() > max {
			max = p.Len()
		}
	}}
	e.run()
	return max
}

// PopCount64 is a tiny helper re-exported for callers working with path
// masks.
func PopCount64(m uint64) int { return bits.OnesCount64(m) }
