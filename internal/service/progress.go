package service

import (
	"sync"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
)

// Per-job progress: each admitted job owns a progressState, attached to
// the synthesis context as its obsv.ProgressSink. The state keeps two
// faces of the same stream — a bounded ring of typed events for
// GET /v1/jobs/{id}/events (SSE with Last-Event-ID resume, or ?wait=
// long-poll), and a rolled-up snapshot (phase, lb/ub, best incumbent)
// inlined into GET /v1/jobs/{id} so a plain poll already
// shows how far the search got.
//
// Events from DS/MF sub-syntheses stay in the stream (marked "sub") but
// never touch the snapshot: their bounds describe part covers, and
// folding them in would break the top-level lb/ub monotonicity the
// stream promises (lb never decreases, ub never increases).

// progressEvents bounds each job's event ring, the window a client can
// resume over.
const progressEvents = 512

// ProgressEventJSON is the wire form of one progress event. Seq is the
// SSE event id: per-job, 1-based, strictly increasing, so a client that
// reconnects with Last-Event-ID resumes exactly where it dropped (as
// far as the bounded ring still reaches).
type ProgressEventJSON struct {
	Seq uint64  `json:"seq"`
	TMS float64 `json:"t_ms"` // since the job was enqueued
	// Kind: "phase_start", "phase_done", "bound", "incumbent", "step",
	// or the terminal "done" (which carries the job's final status).
	Kind        string `json:"kind"`
	Phase       string `json:"phase,omitempty"`
	LB          int    `json:"lb,omitempty"`
	UB          int    `json:"ub,omitempty"`
	Method      string `json:"method,omitempty"`
	Size        int    `json:"size,omitempty"`
	Grid        string `json:"grid,omitempty"`
	Verified    bool   `json:"verified,omitempty"`
	Step        int    `json:"step,omitempty"`
	GridsProbed int    `json:"grids_probed,omitempty"`
	Sub         bool   `json:"sub,omitempty"`
	// Terminal-event fields: the job's final status and whether the
	// answer is partial (verified incumbent, bounds not met).
	Status  string `json:"status,omitempty"`
	Partial bool   `json:"partial,omitempty"`
}

// ProgressJSON is the snapshot inlined into job poll responses.
type ProgressJSON struct {
	// Phase is the synthesis phase currently running ("minimize",
	// "bounds", "ds", "search"), empty before the job starts.
	Phase string `json:"phase,omitempty"`
	// LB / UB are the current verified bounds; UB 0 means no verified
	// mapping yet.
	LB int `json:"lb"`
	UB int `json:"ub,omitempty"`
	// BestSize / BestGrid describe the best verified incumbent so far.
	BestSize int    `json:"best_size,omitempty"`
	BestGrid string `json:"best_grid,omitempty"`
	// Steps counts finished top-level dichotomic steps; GridsProbed the
	// distinct lattice shapes attempted (DS sub-searches included).
	Steps       int `json:"steps,omitempty"`
	GridsProbed int `json:"grids_probed,omitempty"`
	// FirstMappingMS is the time from enqueue to the first verified
	// mapping (0 until one exists).
	FirstMappingMS float64 `json:"first_mapping_ms,omitempty"`
	// Events is the total number of events emitted so far — the next
	// Last-Event-ID horizon.
	Events uint64 `json:"events"`
}

// progressState is one job's progress stream + snapshot. Safe for
// concurrent use: the synthesis goroutine appends, any number of HTTP
// streamers read. A batch job has none, and a nil state no-ops on every
// method, so its path costs one pointer check.
type progressState struct {
	start time.Time // enqueue time; event t_ms and first-mapping base

	mu sync.Mutex
	// ring holds the newest events, at most size of them. It grows by
	// append until it holds size events, then wraps. next is where the
	// next event goes: the end while the ring grows, then the slot of the
	// oldest retained event.
	ring   []ProgressEventJSON
	size   int
	next   int
	seq    uint64
	notify chan struct{} // closed and replaced on every append

	// Snapshot fields, updated from top-level (non-sub) events only.
	phase        string
	lb, ub       int
	bestSize     int
	bestGrid     string
	steps        int
	gridsProbed  int
	firstMapping time.Duration
	terminal     bool
}

// newProgressState returns an empty state whose ring keeps up to size
// events. The ring takes memory only as events arrive: a job holds as many
// as it emitted, often a dozen or two, and only a long one reaches size.
func newProgressState(size int, start time.Time) *progressState {
	return &progressState{
		start:  start,
		size:   size,
		notify: make(chan struct{}),
	}
}

// Progress implements obsv.ProgressSink: convert, roll into the
// snapshot, append to the ring, and wake streamers. Called inline from
// the search loop, so it only does in-memory work.
func (p *progressState) Progress(ev obsv.ProgressEvent) {
	if p == nil {
		return
	}
	e := ProgressEventJSON{
		Kind: ev.Kind.String(), Phase: ev.Phase,
		LB: ev.LB, UB: ev.UB, Method: ev.Method,
		Size: ev.Size, Grid: ev.Grid, Verified: ev.Verified,
		Step: ev.Step, GridsProbed: ev.GridsProbed,
		Sub: ev.Sub,
	}
	p.mu.Lock()
	if !ev.Sub {
		p.rollLocked(ev)
	}
	p.appendLocked(e)
	p.mu.Unlock()
}

// rollLocked folds one top-level event into the snapshot, clamping the
// bounds monotone (lb never down, ub never up) so a snapshot poll can
// never observe a regression the event stream also promises not to.
func (p *progressState) rollLocked(ev obsv.ProgressEvent) {
	switch ev.Kind {
	case obsv.ProgressPhaseStart:
		p.phase = ev.Phase
	case obsv.ProgressPhaseDone:
		if p.phase == ev.Phase {
			p.phase = ""
		}
	case obsv.ProgressBound:
		if ev.LB > p.lb {
			p.lb = ev.LB
		}
		if ev.UB > 0 && (p.ub == 0 || ev.UB < p.ub) {
			p.ub = ev.UB
		}
	case obsv.ProgressIncumbent:
		if p.bestSize == 0 || ev.Size < p.bestSize {
			p.bestSize, p.bestGrid = ev.Size, ev.Grid
		}
		if p.firstMapping == 0 {
			p.firstMapping = time.Since(p.start)
		}
	case obsv.ProgressStep:
		p.steps++
		if ev.GridsProbed > p.gridsProbed {
			p.gridsProbed = ev.GridsProbed
		}
	}
}

// appendLocked stamps seq and t_ms, writes into the ring (appending until
// it holds size events, overwriting the oldest after), and wakes every
// waiter by closing and replacing the notify channel.
func (p *progressState) appendLocked(e ProgressEventJSON) {
	p.seq++
	e.Seq = p.seq
	e.TMS = float64(time.Since(p.start)) / float64(time.Millisecond)
	if len(p.ring) < p.size {
		p.ring = append(p.ring, e)
	} else {
		p.ring[p.next] = e
	}
	p.next = (p.next + 1) % p.size
	close(p.notify)
	p.notify = make(chan struct{})
}

// finish appends the terminal event. After it, eventsSince reports
// terminal and streamers close.
func (p *progressState) finish(status string, finalLB, finalUB int, partial bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.terminal {
		p.terminal = true
		if finalLB > p.lb {
			p.lb = finalLB
		}
		if finalUB > 0 && (p.ub == 0 || finalUB < p.ub) {
			p.ub = finalUB
		}
		p.phase = ""
		p.appendLocked(ProgressEventJSON{
			Kind: "done", Status: status,
			LB: p.lb, UB: p.ub, Partial: partial,
		})
	}
	p.mu.Unlock()
}

// snapshot returns the rolled-up progress for job poll responses.
func (p *progressState) snapshot() *ProgressJSON {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return &ProgressJSON{
		Phase: p.phase, LB: p.lb, UB: p.ub,
		BestSize: p.bestSize, BestGrid: p.bestGrid,
		Steps: p.steps, GridsProbed: p.gridsProbed,
		FirstMappingMS: float64(p.firstMapping) / float64(time.Millisecond),
		Events:         p.seq,
	}
}

// firstMappingAt returns the enqueue-to-first-verified-mapping latency,
// or 0 when no mapping was ever reported.
func (p *progressState) firstMappingAt() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.firstMapping
}

// eventsSince returns the retained events with Seq > after, oldest
// first, and whether the stream is terminal. A client that fell more
// than the ring size behind silently resumes at the oldest retained
// event — the snapshot fields of later events re-establish the bounds.
func (p *progressState) eventsSince(after uint64) ([]ProgressEventJSON, bool) {
	if p == nil {
		return nil, true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var evs []ProgressEventJSON
	n := len(p.ring)
	for i := 0; i < n; i++ {
		// While the ring grows next is n, so the oldest event is at 0.
		e := p.ring[(p.next+i)%n]
		if e.Seq > after {
			evs = append(evs, e)
		}
	}
	return evs, p.terminal
}

// waitCh returns a channel closed at the next append (or already-closed
// history if an append raced the caller's last read).
func (p *progressState) waitCh() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.notify
}
