// Package sat implements a conflict-driven clause-learning (CDCL) SAT
// solver in the MiniSat/glucose tradition. It fills the role glucose 4.1
// plays for JANUS: deciding the CNF encodings of lattice mapping problems
// under a configurable time / conflict budget.
//
// Features: two-watched-literal propagation, first-UIP conflict analysis
// with recursive clause minimization, VSIDS variable activity with phase
// saving, Luby restarts, and glucose-style learnt-clause database
// reduction keyed on the literal block distance (LBD).
//
// Clauses of three or more literals, and learnt clauses, live in one flat
// arena of 32-bit words and are named by their offset into it (see cref);
// problem clauses of two literals live only in the binary watch lists. So
// the search loop allocates nothing once the arena, the watch lists and
// the scratch buffers have grown to the formula's size. Reset empties a
// solver for its next formula and keeps all that storage.
package sat

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Lit is a literal: variable v (0-based) encoded as 2v for the positive
// literal and 2v+1 for the negation.
type Lit int32

// MkLit builds the literal of variable v with the given polarity.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// IsNeg reports whether the literal is negated.
func (l Lit) IsNeg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as v or ¬v (1-based like DIMACS).
func (l Lit) String() string {
	if l.IsNeg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the budget was exhausted before a decision.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula was proved unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Limits bounds a Solve call. Zero values mean unlimited.
type Limits struct {
	MaxConflicts int64
	Timeout      time.Duration
	// Interrupt, when non-nil, cancels the search cooperatively: Solve
	// returns Unknown shortly after the channel closes. The check shares
	// the deadline's stride (checkStride search steps) plus every restart
	// boundary, so cancellation latency is bounded by a few hundred
	// propagate/decide rounds, not by conflict counts.
	Interrupt <-chan struct{}
}

// stopped reports whether the limits ask the search to give up now:
// either the interrupt channel is closed or the deadline has passed.
func (lim Limits) stopped(deadline time.Time) bool {
	select {
	case <-lim.Interrupt:
		return true
	default:
	}
	return !deadline.IsZero() && time.Now().After(deadline)
}

// Stats reports search effort counters, cumulative over the solver's
// lifetime (Solve calls interleaved with AddClause keep counting).
type Stats struct {
	Decisions    int64
	Conflicts    int64
	Propagations int64
	Restarts     int64
	Learnts      int64
	Removed      int64
	// Reductions counts learnt-DB reduction passes (each pass removes
	// many clauses; Removed counts the clauses).
	Reductions int64
	// LBDSum accumulates the literal block distance of every learnt
	// clause; LBDSum/Learnts is the mean learnt quality (lower is
	// better, glucose-style).
	LBDSum int64
}

// Sub returns the counter deltas s − t, for windowed measurements such
// as per-Solve effort.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Decisions:    s.Decisions - t.Decisions,
		Conflicts:    s.Conflicts - t.Conflicts,
		Propagations: s.Propagations - t.Propagations,
		Restarts:     s.Restarts - t.Restarts,
		Learnts:      s.Learnts - t.Learnts,
		Removed:      s.Removed - t.Removed,
		Reductions:   s.Reductions - t.Reductions,
		LBDSum:       s.LBDSum - t.LBDSum,
	}
}

// Add returns the counter sums s + t, for totals over several windows.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Decisions:    s.Decisions + t.Decisions,
		Conflicts:    s.Conflicts + t.Conflicts,
		Propagations: s.Propagations + t.Propagations,
		Restarts:     s.Restarts + t.Restarts,
		Learnts:      s.Learnts + t.Learnts,
		Removed:      s.Removed + t.Removed,
		Reductions:   s.Reductions + t.Reductions,
		LBDSum:       s.LBDSum + t.LBDSum,
	}
}

// LBDBuckets is the size of the solver's LBD distribution: bucket i
// counts learnt clauses with LBD i (clamped into the last bucket).
const LBDBuckets = 16

// SolveStats describes one Solve call, handed to the observer installed
// with SetObserver when the call returns.
type SolveStats struct {
	// Status is the call's outcome (Sat, Unsat, or Unknown on budget).
	Status Status
	// Dur is the call's wall-clock duration.
	Dur time.Duration
	// Delta is the effort this call spent; Total the cumulative counters
	// after it.
	Delta, Total Stats
	// LBDHist is the per-call LBD distribution of the clauses this call
	// learnt (see LBDBuckets).
	LBDHist [LBDBuckets]int64
	// LearntDB is the learnt-clause database size after the call.
	LearntDB int
	// Clauses is the problem clause count at the time of the call.
	Clauses int
}

// cref names a clause by the offset of its header in Solver.arena. A
// clause is hdrWords header words followed by its literals:
//
//	arena[c]   size (number of literals), deletedBit once removed
//	arena[c+1] LBD, learntBit for learnt clauses
//	arena[c+2] activity, as float32 bits
//	arena[c+3 : c+3+size] the literals; lits[0] and lits[1] are watched
//
// Offsets are held by the watch lists, reason, clauses and learnts;
// compact moves the live clauses and relocates every one of them.
//
// Problem clauses of two literals get no arena record. A cref with binTag
// set names such an implicit binary by its other literal (see binRef), so
// arena offsets are limited to 2^31 words.
type cref uint32

// crefUndef is the reason of decisions, assumptions and level-0 units.
const crefUndef cref = math.MaxUint32

// binTag marks a cref that is not an arena offset but an implicit problem
// binary clause. crefUndef carries the tag too, so c&binTag == 0 alone
// says that c is an arena offset.
const binTag cref = 1 << 31

// binRef names the implicit binary clause (x ∨ other) as the reason of x,
// or, with the second literal kept in Solver.binConfl, as a conflict.
func binRef(other Lit) cref { return binTag | cref(other) }

const (
	hdrWords   = 3
	deletedBit = 1 << 31 // in the size word
	learntBit  = 1 << 31 // in the LBD word
)

// compactShare: reduceDB and PruneLearnts compact the arena once deleted
// clauses take more than 1/compactShare of it.
const compactShare = 4

type watcher struct {
	c       cref
	blocker Lit
}

// binWatcher is the specialized watch entry for two-literal clauses: when
// the watched literal is falsified, other must hold, with c as its reason.
// c is the arena offset of a learnt binary or binRef of an implicit one.
type binWatcher struct {
	other Lit
	c     cref
}

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	nVars      int
	arena      []uint32 // every clause but the implicit binaries (see cref)
	wasted     int      // words of arena held by deleted clauses
	spare      []uint32 // the arena before the last compaction, reused by the next
	clauses    []cref   // problem clauses in the arena, three literals or more
	binaries   int      // implicit problem binaries, held by binWatches alone
	learnts    []cref
	watches    [][]watcher
	binWatches [][]binWatcher

	assign   []lbool // per literal (2v positive, 2v+1 negative)
	level    []int32
	reason   []cref
	phase    []bool // saved phases
	activity []float64
	varInc   float64
	varDecay float64

	heap    []int32 // binary max-heap of variables by activity
	heapPos []int32 // position in heap, -1 if absent

	trail    []Lit
	trailLim []int32
	qhead    int

	claInc   float32
	ok       bool
	stats    Stats
	seen     []bool
	lbdStamp []int64
	lbdGen   int64
	lbdHist  [LBDBuckets]int64

	learntCap int

	// Scratch buffers owned by the solver so that AddClause and analyze
	// allocate nothing in steady state.
	addBuf    []Lit
	learntBuf []Lit
	toClear   []int32
	// binConfl is the second literal of the implicit binary conflict
	// propagate last returned, and binLits the window clause hands out for
	// an implicit binary.
	binConfl Lit
	binLits  [2]uint32

	// assume holds the current call's assumption literals: assumption i
	// is decided at decision level i+1 before any branching. finalCore
	// records, after an Unsat answer under assumptions, the subset of the
	// assumptions the refutation actually used.
	assume    []Lit
	finalCore []Lit

	// observer, when set, receives per-call statistics at the end of
	// every Solve. It lets an external tracer see inside the CDCL loop
	// without this package depending on it (internal/obsv stays a
	// consumer, not a dependency).
	observer func(SolveStats)
}

// New returns a solver over nVars variables.
func New(nVars int) *Solver {
	s := &Solver{varDecay: 0.95, varInc: 1.0, claInc: 1.0, ok: true, learntCap: 8192}
	s.grow(nVars)
	return s
}

// Reset returns the solver to the state New(0) gives: no variables, no
// clauses, zero counters, no observer. Every array keeps its capacity,
// the watch lists each their own, so a solver reset and loaded with a
// formula no larger than its last allocates nothing for it. Nothing the
// search reads depends on a capacity, so a reset solver makes exactly
// the decisions, conflicts and propagations a new one would.
func (s *Solver) Reset() {
	*s = Solver{
		varDecay: 0.95, varInc: 1.0, claInc: 1.0, ok: true, learntCap: 8192,
		arena:      s.arena[:0],
		spare:      s.spare[:0],
		clauses:    s.clauses[:0],
		learnts:    s.learnts[:0],
		watches:    s.watches[:0],
		binWatches: s.binWatches[:0],
		assign:     s.assign[:0],
		level:      s.level[:0],
		reason:     s.reason[:0],
		phase:      s.phase[:0],
		activity:   s.activity[:0],
		heap:       s.heap[:0],
		heapPos:    s.heapPos[:0],
		trail:      s.trail[:0],
		trailLim:   s.trailLim[:0],
		seen:       s.seen[:0],
		lbdStamp:   s.lbdStamp[:0],
		addBuf:     s.addBuf[:0],
		learntBuf:  s.learntBuf[:0],
		toClear:    s.toClear[:0],
	}
}

// ArenaWords returns the capacity, in 32-bit words, of the clause arena
// and its spare: the bulk of the storage a solver keeps across Reset.
func (s *Solver) ArenaWords() int { return cap(s.arena) + cap(s.spare) }

// grow extends every per-variable and per-literal array to nVars
// variables in one step each.
func (s *Solver) grow(nVars int) {
	old, n := s.nVars, nVars-s.nVars
	s.assign = extend(s.assign, 2*n)
	s.level = extend(s.level, n)
	s.reason = extend(s.reason, n)
	s.phase = extend(s.phase, n)
	s.activity = extend(s.activity, n)
	s.seen = extend(s.seen, n)
	s.lbdStamp = extend(s.lbdStamp, n)
	s.watches = extendLists(s.watches, 2*nVars)
	s.binWatches = extendLists(s.binWatches, 2*nVars)
	s.heapPos = extend(s.heapPos, n)
	s.heap = slices.Grow(s.heap, n)
	for v := old; v < nVars; v++ {
		s.reason[v] = crefUndef
		s.heapPos[v] = -1
		s.heapInsert(int32(v))
	}
	s.nVars = nVars
}

// extend returns xs with n zero values appended, in its own storage when
// its capacity suffices.
func extend[T any](xs []T, n int) []T {
	xs = slices.Grow(xs, n)
	xs = xs[:len(xs)+n]
	clear(xs[len(xs)-n:])
	return xs
}

// extendLists extends lists to n watch lists. The lists a Reset left in
// its capacity are handed out first, emptied, so that each keeps its
// storage; only the lists beyond them start out nil.
func extendLists[W any](lists [][]W, n int) [][]W {
	old := len(lists)
	if n > cap(lists) {
		lists = append(lists[:cap(lists)], make([][]W, n-cap(lists))...)
	} else {
		lists = lists[:n]
	}
	for i := old; i < n; i++ {
		lists[i] = lists[i][:0]
	}
	return lists
}

// Clone returns an independent copy of the solver: the same clauses,
// learnt database, assignment, activities, phases, heap order and
// counters, so that the copy goes on to make exactly the decisions,
// conflicts and propagations the original would. Every array is copied;
// the spare arena, the scratch buffers and the observer are not.
func (s *Solver) Clone() *Solver {
	c := *s
	c.arena = slices.Clone(s.arena)
	c.spare = nil
	c.clauses = slices.Clone(s.clauses)
	c.learnts = slices.Clone(s.learnts)
	c.watches = cloneLists(s.watches)
	c.binWatches = cloneLists(s.binWatches)
	c.assign = slices.Clone(s.assign)
	c.level = slices.Clone(s.level)
	c.reason = slices.Clone(s.reason)
	c.phase = slices.Clone(s.phase)
	c.activity = slices.Clone(s.activity)
	c.heap = slices.Clone(s.heap)
	c.heapPos = slices.Clone(s.heapPos)
	c.trail = slices.Clone(s.trail)
	c.trailLim = slices.Clone(s.trailLim)
	c.seen = slices.Clone(s.seen)
	c.lbdStamp = slices.Clone(s.lbdStamp)
	c.addBuf, c.learntBuf, c.toClear = nil, nil, nil
	c.assume = nil
	c.finalCore = slices.Clone(s.finalCore)
	c.observer = nil
	return &c
}

// cloneLists copies watch lists into one backing array, each list capped
// at its length so that growing one reallocates that list alone.
func cloneLists[W any](lists [][]W) [][]W {
	n := 0
	for _, ws := range lists {
		n += len(ws)
	}
	all := make([]W, 0, n)
	out := make([][]W, len(lists))
	for i, ws := range lists {
		if len(ws) == 0 {
			continue
		}
		start := len(all)
		all = append(all, ws...)
		out[i] = all[start:len(all):len(all)]
	}
	return out
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of problem clauses currently stored,
// implicit binaries included.
func (s *Solver) NumClauses() int { return len(s.clauses) + s.binaries }

// Stats returns search counters accumulated so far.
func (s *Solver) Stats() Stats { return s.stats }

// LBDHistogram returns the lifetime LBD distribution of learnt clauses:
// element i counts clauses learnt with LBD i, the last element catching
// everything at or above LBDBuckets−1.
func (s *Solver) LBDHistogram() [LBDBuckets]int64 { return s.lbdHist }

// SetObserver installs a callback invoked at the end of every Solve call
// with that call's statistics. A nil observer disables the hook. The
// callback runs on the Solve goroutine; it must not call back into the
// solver.
func (s *Solver) SetObserver(fn func(SolveStats)) { s.observer = fn }

// AddVar allocates a fresh variable and returns its index.
func (s *Solver) AddVar() int {
	v := s.nVars
	s.grow(v + 1)
	return v
}

// EnsureVars grows the variable space to at least n variables, so that
// models of incrementally added formulas cover variables that do not yet
// occur in any clause.
func (s *Solver) EnsureVars(n int) {
	if n > s.nVars {
		s.grow(n)
	}
}

// Reserve makes room for clauses more problem clauses of three or more
// literals holding lits literals in all, so that loading a formula of
// known volume grows the clause arena once instead of by repeated
// doubling. Binary clauses take no arena room. It is only a capacity
// hint: the formula and the search are unaffected.
func (s *Solver) Reserve(clauses, lits int) {
	s.arena = slices.Grow(s.arena, clauses*hdrWords+lits)
	s.clauses = slices.Grow(s.clauses, clauses)
}

// --- clause arena --------------------------------------------------------

// alloc appends a clause to the arena and returns its offset. lbdWord is
// the header's LBD word: 0 for a problem clause, learntBit|LBD for a
// learnt one.
func (s *Solver) alloc(lits []Lit, lbdWord uint32) cref {
	c := cref(len(s.arena))
	if int64(c)+hdrWords+int64(len(lits)) >= int64(binTag) {
		panic("sat: clause arena exceeds 2^31 words")
	}
	s.arena = append(s.arena, uint32(len(lits)), lbdWord, 0)
	for _, l := range lits {
		s.arena = append(s.arena, uint32(l))
	}
	return c
}

// lits returns clause c's literals as a window of the arena: swaps
// through it reorder the clause in place. Valid until the next alloc or
// compact.
func (s *Solver) lits(c cref) []uint32 {
	n := cref(s.arena[c] &^ deletedBit)
	return s.arena[c+hdrWords : c+hdrWords+n]
}

// clause returns the literals of the reason or conflict c, where with is
// the literal c was found through: the implied literal of a reason, or
// binConfl for a conflict. An arena clause is its arena window; an
// implicit binary is its two literals in ascending order, the order
// AddClause gave the arena record such a clause used to have. Valid until
// the next call.
func (s *Solver) clause(c cref, with Lit) []uint32 {
	if c&binTag == 0 {
		return s.lits(c)
	}
	a, b := uint32(c&^binTag), uint32(with)
	if b < a {
		a, b = b, a
	}
	s.binLits = [2]uint32{a, b}
	return s.binLits[:]
}

func (s *Solver) size(c cref) int { return int(s.arena[c] &^ deletedBit) }

func (s *Solver) lit(c cref, i int) Lit { return Lit(s.arena[c+hdrWords+cref(i)]) }

func (s *Solver) lbd(c cref) int32 { return int32(s.arena[c+1] &^ learntBit) }

func (s *Solver) act(c cref) float32 { return math.Float32frombits(s.arena[c+2]) }

func (s *Solver) setAct(c cref, a float32) { s.arena[c+2] = math.Float32bits(a) }

// locked reports whether learnt clause c is the reason of its first
// literal's current assignment, so deleting it would strand the trail.
func (s *Solver) locked(c cref) bool {
	l0 := s.lit(c, 0)
	return s.value(l0) == lTrue && s.reason[l0.Var()] == c
}

// remove detaches clause c and marks its words as waste for compact.
func (s *Solver) remove(c cref) {
	s.detach(c)
	s.wasted += hdrWords + s.size(c)
	s.arena[c] |= deletedBit
}

// maybeCompact compacts the arena once deleted clauses waste more than
// 1/compactShare of it.
func (s *Solver) maybeCompact() {
	if s.wasted*compactShare > len(s.arena) {
		s.compact()
	}
}

// compact copies the live clauses, in arena order, into the spare buffer
// and relocates every holder of an offset: the watch lists, the reasons
// of assigned variables, clauses and learnts. Each moved clause leaves
// its new offset in the LBD word of its old header, which is the only
// word read back before the old arena becomes the next spare. Relocation
// keeps every list's order, so the search cannot tell that it happened.
// The new arena gets the old one's capacity, so the learnts that follow
// do not force a regrowth straight away; after two compactions the two
// buffers take turns and compaction allocates nothing. A spare smaller
// than the arena is replaced by one of exactly the arena's capacity: grown
// by append instead, it would come out larger than the arena, and every
// later compaction would allocate again, each time about a quarter more.
func (s *Solver) compact() {
	from := s.arena
	to := s.spare[:0]
	if cap(to) < cap(from) {
		to = make([]uint32, 0, cap(from))
	}
	for c := 0; c < len(from); {
		next := c + hdrWords + int(from[c]&^deletedBit)
		if from[c]&deletedBit == 0 {
			nc := uint32(len(to))
			to = append(to, from[c:next]...)
			from[c+1] = nc
		}
		c = next
	}
	reloc := func(c cref) cref { return cref(from[c+1]) }
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = reloc(ws[i].c)
		}
	}
	for _, ws := range s.binWatches {
		for i := range ws {
			if ws[i].c&binTag == 0 {
				ws[i].c = reloc(ws[i].c)
			}
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r&binTag == 0 {
			s.reason[l.Var()] = reloc(r)
		}
	}
	for i, c := range s.clauses {
		s.clauses[i] = reloc(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = reloc(c)
	}
	s.arena, s.spare = to, from
	s.wasted = 0
}

func (s *Solver) value(l Lit) lbool { return s.assign[l] }

// ErrAddAfterUnsat is returned when clauses are added to a solver already
// known to be unsatisfiable.
var ErrAddAfterUnsat = errors.New("sat: solver is already unsatisfiable")

// AddClause adds a clause given as a literal slice. It performs level-0
// simplifications: duplicate removal, tautology elimination, false-literal
// stripping. Adding the empty clause makes the solver permanently Unsat.
//
// AddClause may be called again after Solve has returned, which makes the
// solver incremental: the search state is rewound to decision level 0 (so
// read the model first — it is invalidated), the new clause is attached,
// and the next Solve re-propagates from scratch while keeping all learnt
// clauses, VSIDS activity, and saved phases. Learnt clauses remain sound
// because they are resolvents of the existing clauses, which adding new
// clauses never invalidates.
func (s *Solver) AddClause(lits ...Lit) error {
	if !s.ok {
		return ErrAddAfterUnsat
	}
	s.backtrackTo(0)
	// Normalize.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if int(l>>1) >= s.nVars {
			s.grow(int(l>>1) + 1)
		}
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return nil // tautology
		}
		switch s.value(l) {
		case lTrue:
			return nil // already satisfied at level 0
		case lFalse:
			continue // drop falsified literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return nil
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.ok = false
		}
		return nil
	case 2:
		// An implicit binary: each watch entry's reason names the other
		// watched literal, and no arena record exists.
		s.binWatches[out[0].Not()] = append(s.binWatches[out[0].Not()], binWatcher{out[1], binRef(out[0])})
		s.binWatches[out[1].Not()] = append(s.binWatches[out[1].Not()], binWatcher{out[0], binRef(out[1])})
		s.binaries++
		return nil
	}
	c := s.alloc(out, 0)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return nil
}

func (s *Solver) attach(c cref) {
	l0, l1 := s.lit(c, 0), s.lit(c, 1)
	if s.size(c) == 2 {
		s.binWatches[l0.Not()] = append(s.binWatches[l0.Not()], binWatcher{l1, c})
		s.binWatches[l1.Not()] = append(s.binWatches[l1.Not()], binWatcher{l0, c})
		return
	}
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{c, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{c, l0})
}

// detach swap-removes c's two watch entries (binary or long).
func (s *Solver) detach(c cref) {
	bin := s.size(c) == 2
	for i := 0; i < 2; i++ {
		w := s.lit(c, i).Not()
		if bin {
			s.binWatches[w] = swapRemove(s.binWatches[w], func(bw binWatcher) bool { return bw.c == c })
		} else {
			s.watches[w] = swapRemove(s.watches[w], func(lw watcher) bool { return lw.c == c })
		}
	}
}

// swapRemove removes the first element matching is by moving the last
// element into its place.
func swapRemove[W any](ws []W, is func(W) bool) []W {
	for i := range ws {
		if is(ws[i]) {
			ws[i] = ws[len(ws)-1]
			return ws[:len(ws)-1]
		}
	}
	return ws
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.assign[l] = lTrue
	s.assign[l^1] = lFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns a conflicting clause or
// crefUndef.
func (s *Solver) propagate() cref {
	// Propagation allocates no clause and no variable, so the arena and
	// the assignment array stay where they are and are read once.
	assign, arena := s.assign, s.arena
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		notP := p.Not()
		// Binary clauses first: no watch juggling needed.
		for _, bw := range s.binWatches[p] {
			switch assign[bw.other] {
			case lFalse:
				s.qhead = len(s.trail)
				s.binConfl = bw.other
				return bw.c
			case lUndef:
				s.uncheckedEnqueue(bw.other, bw.c)
			}
		}
		ws := s.watches[p]
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if assign[w.blocker] == lTrue {
				ws[n] = w
				n++
				continue
			}
			c := w.c
			lits := arena[c+hdrWords : c+hdrWords+cref(arena[c]&^deletedBit)]
			// Make sure the falsified literal is lits[1].
			if Lit(lits[0]) == notP {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := Lit(lits[0])
			if first != w.blocker && assign[first] == lTrue {
				ws[n] = watcher{c, first}
				n++
				continue
			}
			// Look for a new watch.
			for k := 2; k < len(lits); k++ {
				if assign[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					q := Lit(lits[1]).Not()
					s.watches[q] = append(s.watches[q], watcher{c, first})
					continue nextWatcher
				}
			}
			// Unit or conflict.
			ws[n] = watcher{c, first}
			n++
			if assign[first] == lFalse {
				// Conflict: copy back remaining watchers and bail.
				n += copy(ws[n:], ws[i+1:])
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:n]
	}
	return crefUndef
}

func (s *Solver) varBump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

func (s *Solver) varDecayActivity() { s.varInc /= s.varDecay }

// claBump bumps a learnt clause's activity. Problem clauses have none
// that anything reads, so analyze bumps learnt clauses alone.
func (s *Solver) claBump(c cref) {
	a := s.act(c) + s.claInc
	s.setAct(c, a)
	if a > 1e30 {
		for _, lc := range s.learnts {
			s.setAct(lc, s.act(lc)*1e-30)
		}
		s.claInc *= 1e-30
	}
}

// lbdPrecise counts the distinct decision levels among the clause literals
// (the glucose LBD measure), using a stamped array to avoid allocation.
func (s *Solver) lbdPrecise(lits []Lit) int32 {
	s.lbdGen++
	var n int32
	for _, l := range lits {
		lv := int(s.level[l.Var()])
		if lv == 0 {
			continue
		}
		for lv >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, 0)
		}
		if s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			n++
		}
	}
	return n
}

// analyze performs first-UIP conflict analysis. It returns the learnt
// clause (asserting literal first) and the backtrack level. The clause is
// the solver's scratch buffer, valid until the next analyze.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	toClear := s.toClear[:0]

	with := s.binConfl
	for {
		if confl&binTag == 0 && s.arena[confl+1]&learntBit != 0 {
			s.claBump(confl)
		}
		for _, w := range s.clause(confl, with) {
			q := Lit(w)
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				toClear = append(toClear, int32(v))
				s.varBump(v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal to look at.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		confl, with = s.reason[v], p
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Clause minimization: drop literals implied by the rest. The literals
	// of learnt[1:] are still marked seen, which redundant() relies on.
	out := learnt[:1]
	for i := 1; i < len(learnt); i++ {
		if !s.redundant(learnt[i]) {
			out = append(out, learnt[i])
		}
	}
	learnt = out
	for _, v := range toClear {
		s.seen[v] = false
	}
	s.learntBuf, s.toClear = learnt, toClear

	// Backtrack level: max level among learnt[1:], and move that literal to
	// position 1 for watching.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	return learnt, btLevel
}

// analyzeFinal computes the final-conflict core: given assumption p found
// falsified while establishing the assumption levels, it walks the
// implication trail backwards and collects the subset of the already
// established assumptions that (together with p) the refutation actually
// used. The core is returned in the assumptions' original polarity, p
// included, so a caller activating clause groups by assumption literal
// can read exactly which groups conflicted.
func (s *Solver) analyzeFinal(p Lit) []Lit {
	core := []Lit{p}
	if s.decisionLevel() == 0 {
		// p is refuted by level-0 facts alone (e.g. a learnt unit): no
		// other assumption shares the blame.
		return core
	}
	s.seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == crefUndef {
			// A decision below the branching levels is an assumption.
			if s.level[v] > 0 {
				core = append(core, s.trail[i])
			}
		} else {
			for _, w := range s.clause(s.reason[v], s.trail[i]) {
				if q := Lit(w); q.Var() != v && s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
	return core
}

// FinalCore returns the assumptions responsible for the last SolveAssume
// call's Unsat answer, in their original polarity. A nil core after Unsat
// means the formula is unsatisfiable regardless of assumptions. The slice
// is valid until the next Solve/SolveAssume call.
func (s *Solver) FinalCore() []Lit { return s.finalCore }

// redundant reports whether literal l of a learnt clause is implied by the
// remaining marked literals (simple non-recursive check on its reason).
func (s *Solver) redundant(l Lit) bool {
	r := s.reason[l.Var()]
	if r == crefUndef {
		return false
	}
	for _, w := range s.clause(r, l.Not()) {
		q := Lit(w)
		if q.Var() == l.Var() {
			continue
		}
		if s.level[q.Var()] != 0 && !s.seen[q.Var()] {
			return false
		}
	}
	return true
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := s.trailLim[level]
	for i := len(s.trail) - 1; i >= int(lim); i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = s.assign[l&^1] == lTrue
		s.assign[l] = lUndef
		s.assign[l^1] = lUndef
		s.reason[v] = crefUndef
		if s.heapPos[v] < 0 {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// --- decision heap -------------------------------------------------------

func (s *Solver) heapLess(a, b int32) bool { return s.activity[a] > s.activity[b] }

func (s *Solver) heapInsert(v int32) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(s.heapPos[v])
}

func (s *Solver) heapUp(i int32) {
	v := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(v, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heapPos[s.heap[i]] = i
		i = parent
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapDown(i int32) {
	v := s.heap[i]
	n := int32(len(s.heap))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = i
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapPop() int32 {
	v := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapPos[v] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapPos[last] = 0
		s.heapDown(0)
	}
	return v
}

func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v<<1] == lUndef {
			return int(v)
		}
	}
	return -1
}

// --- learnt DB management ------------------------------------------------

func (s *Solver) reduceDB() {
	s.stats.Reductions++
	sort.Slice(s.learnts, func(i, j int) bool {
		a, b := s.learnts[i], s.learnts[j]
		if la, lb := s.lbd(a), s.lbd(b); la != lb {
			return la > lb // worst first
		}
		return s.act(a) < s.act(b)
	})
	keepFrom := len(s.learnts) / 2
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		if i >= keepFrom || s.lbd(c) <= 3 || s.size(c) == 2 || s.locked(c) {
			kept = append(kept, c)
		} else {
			s.remove(c)
			s.stats.Removed++
		}
	}
	s.learnts = kept
	s.maybeCompact()
}

// PruneLearnts detaches every learnt clause whose LBD exceeds maxLBD or
// whose length exceeds maxSize, the same quality measures reduceDB keys
// on. Binary clauses and clauses locked as propagation reasons are always
// kept, so the operation is safe between Solve calls; learnt clauses are
// implied by the formula, so dropping any subset never changes an answer,
// only how much pruning the next call inherits. The trail is unwound to
// decision level 0 first, which invalidates any model from the previous
// Solve. Returns the number of clauses removed.
//
// A caller sharing one solver across many assumption frames (see
// internal/encode.SharedPool) uses this when switching frames: clauses
// learnt deep inside one frame tend to mention its activation literal and
// rate a high LBD, so they are watch-list freight for every other frame.
func (s *Solver) PruneLearnts(maxLBD int32, maxSize int) int {
	s.backtrackTo(0)
	kept := s.learnts[:0]
	removed := 0
	for _, c := range s.learnts {
		if s.locked(c) || s.size(c) == 2 || (s.lbd(c) <= maxLBD && s.size(c) <= maxSize) {
			kept = append(kept, c)
		} else {
			s.remove(c)
			removed++
		}
	}
	s.learnts = kept
	if removed > 0 {
		s.stats.Removed += int64(removed)
		s.stats.Reductions++
		s.maybeCompact()
	}
	return removed
}

// luby returns element x (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,... (MiniSat's formulation).
func luby(x int64) int64 {
	size, seq := int64(1), uint(0)
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << seq
}

// Solve runs the CDCL search under the given limits. When the result is
// Sat, Model returns the satisfying assignment.
//
// Solve may be called repeatedly, interleaved with AddClause: each call
// restarts the search from decision level 0 against the clauses added so
// far, reusing the learnt-clause database, variable activities, and saved
// phases accumulated by earlier calls.
func (s *Solver) Solve(lim Limits) Status { return s.SolveAssume(lim) }

// SolveAssume runs the CDCL search with the given assumption literals
// held true for the duration of this call only. Assumptions are decided
// on dedicated decision levels before any branching, so an Unsat answer
// means "unsatisfiable under these assumptions" — the solver itself stays
// usable, and FinalCore reports which assumptions the refutation used (a
// nil core means the formula is unsatisfiable outright). Learnt clauses,
// variable activities, and saved phases persist across calls exactly as
// with Solve; clauses learnt under assumptions mention the assumption
// literals explicitly, so they remain globally sound and keep pruning
// later calls made under different assumptions.
func (s *Solver) SolveAssume(lim Limits, assumptions ...Lit) Status {
	for _, a := range assumptions {
		if int(a>>1) >= s.nVars {
			s.grow(int(a>>1) + 1)
		}
	}
	s.assume = assumptions
	s.finalCore = nil
	defer func() { s.assume = nil }()
	if s.observer == nil {
		return s.solve(lim)
	}
	before, histBefore := s.stats, s.lbdHist
	start := time.Now()
	st := s.solve(lim)
	ss := SolveStats{
		Status:   st,
		Dur:      time.Since(start),
		Delta:    s.stats.Sub(before),
		Total:    s.stats,
		LearntDB: len(s.learnts),
		Clauses:  s.NumClauses(),
	}
	for i := range ss.LBDHist {
		ss.LBDHist[i] = s.lbdHist[i] - histBefore[i]
	}
	s.observer(ss)
	return st
}

func (s *Solver) solve(lim Limits) Status {
	if !s.ok {
		return Unsat
	}
	s.backtrackTo(0)
	var deadline time.Time
	if lim.Timeout > 0 {
		deadline = time.Now().Add(lim.Timeout)
	}
	if lim.stopped(deadline) {
		return Unknown
	}
	restartN := int64(0)
	for {
		budget := luby(restartN) * 128
		restartN++
		st := s.search(budget, lim, deadline)
		if st != Unknown {
			return st
		}
		if lim.MaxConflicts > 0 && s.stats.Conflicts >= lim.MaxConflicts {
			s.backtrackTo(0)
			return Unknown
		}
		// Restart boundary: re-check the deadline and the interrupt even
		// when the conflict stride inside search never fired.
		if lim.stopped(deadline) {
			s.backtrackTo(0)
			return Unknown
		}
		s.stats.Restarts++
	}
}

// checkStride is how many search steps (propagate/decide or conflict
// rounds) pass between deadline/interrupt checks. The pre-fix code keyed
// the check on conflict counts alone (`conflicts%256 == 0` on the
// no-conflict branch), so after the first conflict a low-conflict,
// high-propagation instance would not look at the clock again until 256
// conflicts accumulated — far past Limits.Timeout on instances whose
// time goes into propagation. Counting every loop iteration bounds the
// overshoot by the stride regardless of the conflict rate.
const checkStride = 256

func (s *Solver) search(budget int64, lim Limits, deadline time.Time) Status {
	conflicts := int64(0)
	steps := int64(0)
	for {
		steps++
		if steps%checkStride == 0 && lim.stopped(deadline) {
			s.backtrackTo(0)
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				lbd := s.lbdPrecise(learnt)
				c := s.alloc(learnt, learntBit|uint32(lbd))
				s.learnts = append(s.learnts, c)
				s.stats.Learnts++
				s.stats.LBDSum += int64(lbd)
				if b := int(lbd); b < LBDBuckets {
					s.lbdHist[b]++
				} else {
					s.lbdHist[LBDBuckets-1]++
				}
				s.attach(c)
				s.claBump(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varDecayActivity()
			continue
		}
		// No conflict.
		if conflicts >= budget {
			s.backtrackTo(0)
			return Unknown
		}
		if lim.MaxConflicts > 0 && s.stats.Conflicts >= lim.MaxConflicts {
			s.backtrackTo(0)
			return Unknown
		}
		if len(s.learnts) > s.learntCap+len(s.trail) {
			s.reduceDB()
			s.learntCap += 256
		}
		// Establish the assumption levels before any branching. A restart
		// or a deep backtrack unwinds them; this loop re-asserts whichever
		// are missing, one propagation round at a time.
		if s.decisionLevel() < len(s.assume) {
			p := s.assume[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				// Already implied: open a dummy level so assumption i
				// stays pinned to decision level i+1.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
			case lFalse:
				// The remaining assumptions are incompatible with what the
				// formula (plus the established assumptions) implies.
				s.finalCore = s.analyzeFinal(p)
				s.backtrackTo(0)
				return Unsat
			default:
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				s.uncheckedEnqueue(p, crefUndef)
			}
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			return Sat // all variables assigned
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(MkLit(v, !s.phase[v]), crefUndef)
	}
}

// Model returns the value of variable v in the last satisfying assignment.
// Only meaningful immediately after Solve returned Sat.
func (s *Solver) Model(v int) bool { return s.assign[v<<1] == lTrue }

// ModelSlice copies the full model into a bool slice.
func (s *Solver) ModelSlice() []bool {
	m := make([]bool, s.nVars)
	for v := 0; v < s.nVars; v++ {
		m[v] = s.assign[v<<1] == lTrue
	}
	return m
}
