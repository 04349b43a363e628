package encode

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/sat"
	"github.com/lattice-tools/janus/internal/truth"
)

// overlapDelay is how long the earliest unsettled attempt of a step runs
// alone before a later attempt may start beside it. Calls on small
// functions answer well inside it (on 2,000 random 5-input functions of
// three 3-literal cubes, the first orientation ran past 10 ms in 11 of
// 2,161 calls), so few copies are made only to be thrown away, while the
// long Unknown and Unsat attempts of the paper's instances overlap almost
// whole.
const overlapDelay = 10 * time.Millisecond

// overlapAfter is overlapDelay; tests set it to 0 so that a later attempt
// starts as soon as its engine is free and a CPU is.
var overlapAfter = overlapDelay

// solving counts the attempts running solveGrid, process-wide. An attempt
// starts ahead of its turn only while the count is below GOMAXPROCS, so
// speculation takes an idle CPU and never competes with other syntheses.
var solving atomic.Int32

// maxCegarPaths skips an orientation whose path list would not fit: per
// entry work is proportional to the path count, and the refinement loop
// only materializes the entries it needs, but the paths themselves must
// be listed.
const maxCegarPaths = 200000

// SolveFirst decides the LM problem on each grid in order, as SolveLMCegar
// decides one, and returns the Result of every grid it decided: each grid
// up to and including the first Sat, or all of them when none is. On an
// error the Results are those of the grids before the failing one. When
// expired is non-nil it is asked before each grid is decided, and a true
// answer ends the search without deciding that grid or any later one; it
// is also asked before an attempt starts ahead of its turn on a later
// grid, which then does not start.
//
// Each grid is an LM call: the structural check, which costs no attempt
// when it refutes, then the orientation with fewer paths and, when that is
// not Sat, the other. The sequential search therefore runs the flattened
// attempts of the whole list in order, each exactly when no earlier one
// was Sat, and each on its own engine, the pool's engine for its (cover,
// orientation). There are two such engines, and SolveFirst runs the
// attempts as a pipeline over them:
//
//   - the earliest unsettled attempt, the head, runs on the pool's engine;
//   - when an engine's previous attempt has finished and the head has run
//     overlapDelay, the engine's next attempt starts at once, if a CPU is
//     free, on a copy of the state that previous attempt left: the copy it
//     ran on while it is unsettled, the pool's engine once it is settled;
//   - finished attempts settle in search order: a copy is adopted, that
//     is installed in the pool with its counters committed, when every
//     earlier attempt settled not Sat, and from the first Sat on every
//     later copy is stopped and dropped uncounted.
//
// An attempt's state on its copy is the state the sequential search would
// give it, since only the attempts before it on its engine touch that
// engine. So answers, engines and every committed counter are those of
// the sequential search; only timing depends on the delay and the CPU
// gate. Every attempt has returned before SolveFirst does.
func SolveFirst(target, targetDual cube.Cover, grids []lattice.Grid, opt Options, expired func() bool) ([]Result, error) {
	if target.N > MaxInputs {
		return nil, ErrTooManyInputs
	}
	if target.IsZero() || target.IsOne() {
		var rs []Result
		for _, g := range grids {
			if expired != nil && expired() {
				break
			}
			r, err := SolveLM(target, targetDual, g, opt)
			if err != nil {
				return rs, err
			}
			rs = append(rs, r)
			if r.Status == sat.Sat {
				break
			}
		}
		return rs, nil
	}
	pool := opt.Shared
	if pool == nil {
		pool = NewSharedPool()
		// Every attempt has returned before run does, so nothing uses the
		// pool's solvers after this.
		defer pool.Release()
	}
	p := &pipeline{
		pool:       pool,
		target:     target,
		targetTab:  memo.TableOf(target),
		targetDual: targetDual,
		grids:      grids,
		opt:        opt,
		expired:    expired,
		done:       make(chan *attempt),
		wake:       make(chan struct{}, 1),
		cut:        -1,
	}
	p.keys = [2]poolKey{keyOf(target, false, opt), keyOf(targetDual, true, opt)}
	return p.run()
}

// pipeline is the state of one SolveFirst call. Only the calling goroutine
// touches it; each attempt's goroutine writes its own attempt and hands it
// back over done.
type pipeline struct {
	pool       *SharedPool
	target     cube.Cover
	targetTab  *truth.Table
	targetDual cube.Cover
	grids      []lattice.Grid
	opt        Options
	expired    func() bool
	keys       [2]poolKey // the engines' keys, primal then dual

	plans []gridPlan // plans[i] for grids[i], made on demand
	atts  []*attempt // the planned grids' attempts in search order
	next  int        // the grid to settle next; results holds those before
	// entered is set once grid next has passed the expiry check and, when
	// structurally refuted, been counted.
	entered bool
	// lanes holds, per engine, the attempt started on it last.
	lanes   [2]*attempt
	running int
	// cut is the position of the earliest finished attempt that was Sat or
	// failed, -1 while there is none: no attempt after it may be adopted.
	cut     int
	stopped bool // the caller's interrupt has closed
	done    chan *attempt
	wake    chan struct{}
	timer   *time.Timer
	results []Result
	err     error
}

// gridPlan is one grid's LM call: refuted by the structural check, or the
// orientations to try in order (none when both have too many paths).
type gridPlan struct {
	structural bool
	atts       []*attempt
	deadline   time.Time // Limits.Timeout from the grid's first attempt
}

// attempt is one orientation of one grid.
type attempt struct {
	pos  int // position in search order
	grid int
	a    cegarAttempt
	lane int // 0 primal, 1 dual

	started, finished, halted, settled bool
	onCopy                             bool
	begin                              time.Time
	stop                               chan struct{}

	// Written by the attempt's goroutine, read after it is handed back.
	eng *sharedEngine
	t   tally
	res Result
	err error
}

// cegarAttempt is one orientation of the refinement engine: the cover
// being encoded (f for the primal structure, f^D for the dual), the flag,
// and the orientation's path count (capped just above the limit).
type cegarAttempt struct {
	cover cube.Cover
	dual  bool
	paths int64
}

// run settles what has finished, starts what may start, and waits for the
// next event, until the search is over; then it stops every attempt still
// running and drops the unsettled ones.
func (p *pipeline) run() ([]Result, error) {
	interrupt := p.opt.Limits.Interrupt
	for !p.settle() {
		p.schedule()
		select {
		case x := <-p.done:
			p.finish(x)
		case <-p.wake:
		case <-interrupt:
			interrupt = nil
			p.stopped = true
			for _, x := range p.atts {
				x.halt()
			}
		}
	}
	if p.timer != nil {
		p.timer.Stop()
	}
	for _, x := range p.atts {
		x.halt()
	}
	for p.running > 0 {
		p.finish(<-p.done)
	}
	for _, x := range p.atts {
		if x.started && !x.settled {
			x.t.discard()
		}
	}
	return p.results, p.err
}

// settle adopts finished attempts in search order and closes the grids
// they decide, and reports whether the search is over.
func (p *pipeline) settle() bool {
	for p.next < len(p.grids) {
		if !p.entered {
			if p.expired != nil && p.expired() {
				return true
			}
			p.entered = true
			if gp := p.plan(p.next); gp.structural {
				mStructural.Inc()
				p.close(Result{Status: sat.Unsat, Structural: true})
				continue
			}
		}
		gp := &p.plans[p.next]
		if len(gp.atts) == 0 {
			p.close(Result{Status: sat.Unknown})
			continue
		}
		// The grid's Result is SolveLMCegar's: the first orientation's when
		// it is Sat or the only one, else the second's, Unknown when either
		// was.
		first := gp.atts[0]
		if !p.adopt(first) {
			return false
		}
		if first.err != nil {
			p.err = first.err
			return true
		}
		r := first.res
		if r.Status != sat.Sat && len(gp.atts) == 2 {
			second := gp.atts[1]
			if !p.adopt(second) {
				return false
			}
			if second.err != nil {
				p.err = second.err
				return true
			}
			r = second.res
			if r.Status != sat.Sat && first.res.Status == sat.Unknown {
				r.Status = sat.Unknown
			}
		}
		p.close(r)
		if r.Status == sat.Sat {
			return true
		}
	}
	return true
}

// close records grid next's Result and moves on to the next grid.
func (p *pipeline) close(r Result) {
	p.results = append(p.results, r)
	p.next++
	p.entered = false
}

// adopt settles x when it has finished and reports whether it has: its
// counters are committed and, when it ran on a copy, the copy becomes the
// pool's engine.
func (p *pipeline) adopt(x *attempt) bool {
	if x.settled {
		return true
	}
	if !x.finished {
		return false
	}
	x.settled = true
	if x.onCopy {
		p.pool.install(p.keys[x.lane], x.eng)
		x.t.commit("adopted")
		mOverlapAdopted.Inc()
	} else {
		x.t.commit("")
	}
	x.eng = nil // the pool holds what later attempts need
	return true
}

// schedule starts the head when it has not started, and, on an engine
// whose previous attempt has finished, that engine's next attempt on a
// copy when the gate allows it: the head has run overlapDelay (a timer
// wakes the loop when it will have) and a CPU is free.
func (p *pipeline) schedule() {
	head := p.head()
	if !head.started {
		solving.Add(1)
		p.start(head, false)
	}
	for lane := range p.lanes {
		if last := p.lanes[lane]; last != nil && !last.finished {
			continue
		}
		if wait := overlapAfter - time.Since(head.begin); wait > 0 {
			p.arm(wait)
			continue
		}
		// The gate comes first, so grids are planned ahead only when an
		// attempt may start on them.
		if !takeCPU() {
			continue
		}
		x := p.nextOn(lane)
		if x == nil || x.grid != head.grid && p.expired != nil && p.expired() {
			solving.Add(-1)
			continue
		}
		x.t.ahead = int64(x.grid - head.grid)
		p.start(x, true)
	}
}

// head returns the earliest unsettled attempt, of grid next.
func (p *pipeline) head() *attempt {
	for _, x := range p.plans[p.next].atts {
		if !x.settled {
			return x
		}
	}
	panic("encode: pipeline head of a settled grid")
}

// nextOn returns the lane's next attempt in search order that has not
// started, planning grids ahead as needed, or nil when there is none the
// search could still adopt.
func (p *pipeline) nextOn(lane int) *attempt {
	for i := p.head().pos + 1; ; i++ {
		if p.cut >= 0 && i > p.cut {
			return nil
		}
		for i >= len(p.atts) {
			if len(p.plans) == len(p.grids) {
				return nil
			}
			p.plan(len(p.plans))
		}
		if x := p.atts[i]; x.lane == lane && !x.started {
			return x
		}
	}
}

// plan returns grid i's plan, making it (and those before it) first.
func (p *pipeline) plan(i int) *gridPlan {
	for len(p.plans) <= i {
		g := p.grids[len(p.plans)]
		var gp gridPlan
		if !StructuralCheck(p.target, p.targetDual, g) {
			gp.structural = true
		} else {
			for _, a := range orientations(p.target, p.targetDual, g, p.opt.Mode) {
				x := &attempt{pos: len(p.atts), grid: len(p.plans), a: a}
				if a.dual {
					x.lane = 1
				}
				gp.atts = append(gp.atts, x)
				p.atts = append(p.atts, x)
			}
		}
		p.plans = append(p.plans, gp)
	}
	return &p.plans[i]
}

// orientations returns the orientations an LM call on g tries, in order:
// the one with fewer paths first, only the one the mode names, and none
// over maxCegarPaths.
func orientations(target, targetDual cube.Cover, g lattice.Grid, mode Mode) []cegarAttempt {
	primal := cegarAttempt{target, false, g.CountPathsLimited(maxCegarPaths, false)}
	dual := cegarAttempt{targetDual, true, g.CountPathsLimited(maxCegarPaths, true)}
	order := []cegarAttempt{primal, dual}
	switch {
	case mode == PrimalOnly:
		order = order[:1]
	case mode == DualOnly:
		order = order[1:]
	case dual.paths < primal.paths:
		order = []cegarAttempt{dual, primal}
	}
	kept := order[:0]
	for _, a := range order {
		if a.paths <= maxCegarPaths {
			kept = append(kept, a)
		}
	}
	return kept
}

// start runs x in a goroutine of its own, counted in solving by the
// caller: on the pool's engine, or on a copy of the state its lane's
// previous attempt left.
func (p *pipeline) start(x *attempt, onCopy bool) {
	gp := &p.plans[x.grid]
	x.started, x.onCopy, x.begin = true, onCopy, time.Now()
	if gp.deadline.IsZero() && p.opt.Limits.Timeout > 0 {
		gp.deadline = x.begin.Add(p.opt.Limits.Timeout)
	}
	var from *sharedEngine // a copy the previous attempt ran on, still unsettled
	if prev := p.lanes[x.lane]; onCopy && prev != nil && !prev.settled {
		from = prev.eng
	}
	p.lanes[x.lane] = x
	x.stop = make(chan struct{})
	if p.stopped {
		x.halt()
	}
	opt := p.opt
	opt.Limits.Interrupt = x.stop
	k, g, deadline := p.keys[x.lane], p.grids[x.grid], gp.deadline
	p.running++
	go func() {
		switch {
		case !onCopy:
			x.eng = p.pool.engine(k, x.a.cover, x.a.dual, opt)
		case from != nil:
			x.eng = from.clone()
		default:
			x.eng = p.pool.copyOf(k, x.a.cover, x.a.dual, opt)
		}
		x.res, x.err = x.eng.solveGrid(p.target, p.targetTab, g, opt, deadline, &x.t)
		p.done <- x
	}()
}

// finish takes back a returned attempt. A Sat or failed attempt makes
// every later one unadoptable, so those still running are stopped.
func (p *pipeline) finish(x *attempt) {
	x.finished = true
	p.running--
	solving.Add(-1)
	if (x.err != nil || x.res.Status == sat.Sat) && (p.cut < 0 || x.pos < p.cut) {
		p.cut = x.pos
		for _, y := range p.atts[x.pos+1:] {
			y.halt()
		}
	}
}

// halt interrupts a started attempt that has not finished, once.
func (x *attempt) halt() {
	if x.started && !x.finished && !x.halted {
		x.halted = true
		close(x.stop)
	}
}

// arm wakes the loop after d.
func (p *pipeline) arm(d time.Duration) {
	if p.timer == nil {
		p.timer = time.AfterFunc(d, func() {
			select {
			case p.wake <- struct{}{}:
			default:
			}
		})
		return
	}
	p.timer.Reset(d)
}

// takeCPU counts the caller into solving if that leaves no more
// goroutines solving than GOMAXPROCS.
func takeCPU() bool {
	limit := int32(runtime.GOMAXPROCS(0))
	for {
		n := solving.Load()
		if n >= limit {
			return false
		}
		if solving.CompareAndSwap(n, n+1) {
			return true
		}
	}
}
