package core

import (
	"time"

	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/obsv"
)

// Registry handles for the search-level pipeline (janus_core_*). The
// phase counters accumulate wall-clock nanoseconds per synthesis phase;
// cmd/tableii's footer reads them back for its per-phase breakdown.
// janus_core_bound_updates_total counts verified bound moves (the anytime
// heartbeat) and janus_core_first_mapping_ns distributes the time from
// Synthesize entry to the first verified mapping of top-level runs — the
// latency a caller would see if it settled for "best so far" immediately.
var (
	mSyntheses      = obsv.Default.Counter("janus_core_syntheses_total")
	mLMSolved       = obsv.Default.Counter("janus_core_lm_solved_total")
	mMidpoints      = obsv.Default.Counter("janus_core_dichotomic_steps_total")
	mBoundUpdates   = obsv.Default.Counter("janus_core_bound_updates_total")
	mPhaseMinimNS   = obsv.Default.Counter("janus_core_phase_minimize_ns_total")
	mPhaseBoundNS   = obsv.Default.Counter("janus_core_phase_bounds_ns_total")
	mPhaseDSNS      = obsv.Default.Counter("janus_core_phase_ds_ns_total")
	mPhaseSrchNS    = obsv.Default.Counter("janus_core_phase_search_ns_total")
	hFirstMappingNS = obsv.Default.Histogram("janus_core_first_mapping_ns")
)

// phase times one synthesis phase into a trace span, its registry
// counter, and the progress stream: sp, done := phase(prog, parent,
// "Bounds", "bounds", mPhaseBoundNS); ... ; done(). The span is nil
// (free) when tracing is off and the progress events are skipped when no
// sink is attached; the counter always runs because the cmd footers
// report phase wall-clock even without a trace file.
func phase(prog *progTrail, parent *obsv.Span, name, pname string, ns *obsv.Counter) (*obsv.Span, func()) {
	sp := parent.Child(name)
	prog.phaseStart(pname)
	start := time.Now()
	return sp, func() {
		ns.Add(time.Since(start).Nanoseconds())
		sp.End()
		prog.phaseDone(pname)
	}
}

// progTrail threads one synthesis' progress sink together with the
// bookkeeping the emission points share: the dichotomic step counter,
// the first-mapping clock, and whether this synthesis is a DS/MF
// sub-search (whose bounds describe part covers, not the caller's
// target). The registry counters and the first-mapping histogram run
// regardless of the sink, exactly like the phase counters; only event
// construction is gated on it, so a run without a sink pays a nil check
// per emission point and allocates nothing.
type progTrail struct {
	sink         obsv.ProgressSink
	sub          bool
	start        time.Time
	steps        int
	firstMapping bool
}

func (p *progTrail) phaseStart(name string) {
	if p == nil || p.sink == nil {
		return
	}
	p.sink.Progress(obsv.ProgressEvent{Kind: obsv.ProgressPhaseStart, Phase: name, Sub: p.sub})
}

func (p *progTrail) phaseDone(name string) {
	if p == nil || p.sink == nil {
		return
	}
	p.sink.Progress(obsv.ProgressEvent{Kind: obsv.ProgressPhaseDone, Phase: name, Sub: p.sub})
}

// bound reports a verified bound move. lb 0 means "not computed yet".
func (p *progTrail) bound(lb, ub int, method string) {
	if p == nil {
		return
	}
	mBoundUpdates.Inc()
	if p.sink == nil {
		return
	}
	p.sink.Progress(obsv.ProgressEvent{
		Kind: obsv.ProgressBound, LB: lb, UB: ub, Method: method, Sub: p.sub,
	})
}

// incumbent reports a new best verified mapping; the first one of a
// top-level synthesis stamps the time-to-first-verified-mapping
// histogram.
func (p *progTrail) incumbent(a *lattice.Assignment, method string) {
	if p == nil || a == nil {
		return
	}
	if !p.firstMapping {
		p.firstMapping = true
		if !p.sub {
			hFirstMappingNS.Observe(time.Since(p.start).Nanoseconds())
		}
	}
	if p.sink == nil {
		return
	}
	p.sink.Progress(obsv.ProgressEvent{
		Kind: obsv.ProgressIncumbent, Size: a.Size(), Grid: a.Grid.String(),
		Method: method, Verified: true, Sub: p.sub,
	})
}

// step reports one finished dichotomic step.
func (p *progTrail) step(gridsProbed int) {
	if p == nil {
		return
	}
	p.steps++
	if p.sink == nil {
		return
	}
	p.sink.Progress(obsv.ProgressEvent{
		Kind: obsv.ProgressStep, Step: p.steps, GridsProbed: gridsProbed, Sub: p.sub,
	})
}
