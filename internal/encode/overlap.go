package encode

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/truth"
)

// overlapDelay is how long the first orientation of an LM call runs alone
// before the second may start beside it. Calls on small functions answer
// well inside it (on 2,000 random 5-input functions of three 3-literal
// cubes, the first orientation ran past 10 ms in 11 of 2,161 calls), so
// few copies are made only to be thrown away, while the long Unknown and
// Unsat first attempts of the paper's instances overlap almost whole.
const overlapDelay = 10 * time.Millisecond

// overlapAfter is overlapDelay; tests set it to 0 so that every call with
// two orientations overlaps whenever a CPU is free.
var overlapAfter = overlapDelay

// solving counts the goroutines inside solveGrid, process-wide. A second
// orientation starts only while the count is below GOMAXPROCS, so the
// overlap takes an idle CPU and never competes with other syntheses.
var solving atomic.Int32

// overlap states: the helper has not started, is running (or has run), or
// will never start.
const (
	overlapPending int32 = iota
	overlapRunning
	overlapDropped
)

// overlap is the second orientation of one LM call, solved beside the
// first on a copy of its pool engine. The sequential search runs the
// second orientation exactly when the first is not Sat, on that engine,
// which nothing else touches meanwhile. So adopting the copy, its answer
// and its counters when the first is not Sat, and dropping them when it
// is, leaves every answer and every committed counter as the sequential
// search has them; only timing depends on the delay and the CPU gate.
type overlap struct {
	pool      *SharedPool
	a         cegarAttempt
	target    cube.Cover
	targetTab *truth.Table
	g         lattice.Grid
	opt       Options // the call's options with Limits.Interrupt = stop
	deadline  time.Time

	timer *time.Timer
	state atomic.Int32
	stop  chan struct{} // closed to cancel the helper
	done  chan struct{} // closed when the helper has returned

	// Written by the helper, read after done closes.
	eng *sharedEngine
	key poolKey
	t   tally
	res Result
	err error
}

// startOverlap arms the second orientation a of an LM call: after
// overlapAfter, if a CPU is free, a helper solves it on a copy of the
// pool's engine. The caller counts its first orientation in solving from
// before arming until started has answered, and then settles a started
// helper with adopt or discard.
func startOverlap(pool *SharedPool, a cegarAttempt, target cube.Cover, targetTab *truth.Table,
	g lattice.Grid, opt Options, deadline time.Time) *overlap {
	o := &overlap{
		pool: pool, a: a, target: target, targetTab: targetTab, g: g, deadline: deadline,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	o.opt = opt
	o.opt.Limits.Interrupt = o.stop
	o.timer = time.AfterFunc(overlapAfter, o.run)
	return o
}

// run is the helper: it takes a CPU slot or gives up for good, then
// solves the orientation on a copy of its engine.
func (o *overlap) run() {
	if !takeCPU() {
		o.state.CompareAndSwap(overlapPending, overlapDropped)
		return
	}
	defer solving.Add(-1)
	if !o.state.CompareAndSwap(overlapPending, overlapRunning) {
		return
	}
	defer close(o.done)
	o.eng, o.key = o.pool.copyOf(o.a.cover, o.a.dual, o.opt)
	o.res, o.err = o.eng.solveGrid(o.target, o.targetTab, o.g, o.opt, o.deadline, &o.t)
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

// started stops the timer and reports whether the helper has started; when
// it has not, it never will. A nil overlap never starts.
func (o *overlap) started() bool {
	if o == nil {
		return false
	}
	o.timer.Stop()
	return !o.state.CompareAndSwap(overlapPending, overlapDropped) &&
		o.state.Load() == overlapRunning
}

// adopt is called for a started helper when the first orientation was not
// Sat. It waits for the helper, or cancels it when interrupt closes first;
// installs the copy in the pool in place of the engine it was taken from;
// commits the helper's counters; and returns its result.
func (o *overlap) adopt(interrupt <-chan struct{}) (Result, error) {
	select {
	case <-o.done:
	case <-interrupt:
		close(o.stop)
		<-o.done
	}
	o.pool.install(o.key, o.eng)
	o.t.commit("adopted")
	mOverlapAdopted.Inc()
	return o.res, o.err
}

// discard is called for a started helper when the first orientation was
// Sat or failed: it cancels the helper, waits for it, and drops its copy,
// leaving the pool's engine as it was.
func (o *overlap) discard() {
	close(o.stop)
	<-o.done
	o.t.discard()
}
