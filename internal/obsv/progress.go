package obsv

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress events are the anytime face of a synthesis: the bound chain
// (DP/PS/DPS/IPS/IDPS/DS) hands the search a verified mapping long before
// the dichotomic search converges, and every step after that either
// tightens a bound or improves the incumbent. A ProgressSink receives
// those moments as they happen, so a caller (a CLI -progress flag, the
// janusd job state, a streaming API) can show a live lb/ub ribbon and
// always knows the best answer it would get if it stopped waiting now.
//
// Like the tracer, the sink is nil-safe and allocation-free when off:
// ProgressEvent is a plain value struct, and emission sites check the
// sink for nil before building one. A synthesis takes its sink from
// core.Options.Progress, where janusd puts each job's progress state.

// ProgressKind enumerates the progress event types.
type ProgressKind uint8

const (
	// ProgressPhaseStart / ProgressPhaseDone bracket one pipeline phase
	// (minimize, bounds, ds, search).
	ProgressPhaseStart ProgressKind = iota + 1
	ProgressPhaseDone
	// ProgressBound reports a verified bound move: LB never decreases, UB
	// never increases over a synthesis.
	ProgressBound
	// ProgressIncumbent reports a new best verified mapping.
	ProgressIncumbent
	// ProgressStep reports one finished dichotomic step.
	ProgressStep
)

// String names the kind the way the event stream spells it.
func (k ProgressKind) String() string {
	switch k {
	case ProgressPhaseStart:
		return "phase_start"
	case ProgressPhaseDone:
		return "phase_done"
	case ProgressBound:
		return "bound"
	case ProgressIncumbent:
		return "incumbent"
	case ProgressStep:
		return "step"
	}
	return "unknown"
}

// ProgressEvent is one progress notification. Only the fields of the
// event's Kind are meaningful; the rest stay zero.
type ProgressEvent struct {
	Kind ProgressKind
	// Phase names the pipeline phase (PhaseStart/PhaseDone): "minimize",
	// "bounds", "ds", "search".
	Phase string
	// LB and UB are the current verified bounds on the lattice size
	// (ProgressBound). UB 0 means no verified mapping exists yet (only
	// before the bounds phase finishes); LB 0 means the lower bound has
	// not been computed yet.
	LB, UB int
	// Method names what moved a bound or produced an incumbent: a bound
	// construction ("DPS", "DS"), "lb" for the structural lower bound,
	// "sat"/"unsat"/"undecided" for dichotomic outcomes (undecided: no
	// candidate was Sat, but some was not refuted within the budget).
	Method string
	// Size and Grid describe a new best verified mapping
	// (ProgressIncumbent); Verified records that the mapping was checked
	// against the target (every emitted incumbent is).
	Size     int
	Grid     string
	Verified bool
	// Step numbers the finished dichotomic step within its synthesis
	// (ProgressStep, 1-based); GridsProbed the cumulative distinct
	// lattice shapes attempted.
	Step        int
	GridsProbed int
	// Sub marks events from DS/MF sub-syntheses, which work on part
	// covers: their bounds say nothing about the top-level target, but
	// their probes and steps are real effort worth showing.
	Sub bool
}

// ProgressSink receives progress events. Implementations are called
// inline from the search loop (possibly from several goroutines, when
// syntheses share a sink) and must be cheap and non-blocking; hand off to a channel
// or buffer instead of doing I/O when latency matters.
type ProgressSink interface {
	Progress(ProgressEvent)
}

// ProgressWriter is a ProgressSink printing one line per event — the
// cmd-level -progress output. Lines are prefixed with the wall-clock
// offset since the writer was created, so a watcher sees where the time
// goes:
//
//	[  0.01s] phase bounds done
//	[  0.01s] bound lb=0 ub=12 (DPS)
//	[  0.45s] incumbent 3x3=9 verified
//	[  0.45s] step 2 grids=5
//
// Safe for concurrent use; a nil writer discards events.
type ProgressWriter struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
}

// NewProgressWriter returns a writer-backed sink; events are rendered
// relative to now.
func NewProgressWriter(w io.Writer) *ProgressWriter {
	return &ProgressWriter{w: w, start: time.Now()}
}

// Progress renders one event.
func (pw *ProgressWriter) Progress(ev ProgressEvent) {
	if pw == nil || pw.w == nil {
		return
	}
	var line string
	switch ev.Kind {
	case ProgressPhaseStart:
		line = fmt.Sprintf("phase %s", ev.Phase)
	case ProgressPhaseDone:
		line = fmt.Sprintf("phase %s done", ev.Phase)
	case ProgressBound:
		line = fmt.Sprintf("bound lb=%d ub=%d (%s)", ev.LB, ev.UB, ev.Method)
	case ProgressIncumbent:
		line = fmt.Sprintf("incumbent %s=%d", ev.Grid, ev.Size)
		if ev.Verified {
			line += " verified"
		}
	case ProgressStep:
		line = fmt.Sprintf("step %d grids=%d", ev.Step, ev.GridsProbed)
	default:
		return
	}
	if ev.Sub {
		line = "sub " + line
	}
	pw.mu.Lock()
	defer pw.mu.Unlock()
	fmt.Fprintf(pw.w, "[%7.2fs] %s\n", time.Since(pw.start).Seconds(), line)
}
