package service

import (
	"sync"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
)

// FlightEntry is one request summary in the flight recorder: enough to
// see what the request asked (function key prefix), how it was answered
// (cache tier, coalescing, outcome), and where its time went (queue wait
// vs. solve wall), keyed by the ids needed to cross-reference the access
// log and the retained job trace.
type FlightEntry struct {
	Time      time.Time `json:"time"`
	RequestID string    `json:"request_id"`
	JobID     string    `json:"job_id,omitempty"`
	// CoalescedInto names the leader job whose synthesis answered this
	// follower request; its trace is the one to read.
	CoalescedInto string `json:"coalesced_into,omitempty"`
	FnKey         string `json:"fn_key,omitempty"`
	// Outcome is a job status (done/error/canceled) or one of the
	// admission outcomes "shed" (429) and "draining" (503).
	Outcome string `json:"outcome"`
	Cached  string `json:"cached,omitempty"`
	Error   string `json:"error,omitempty"`
	// Grid is the answer's lattice shape; GridsProbed the distinct shapes
	// the search attempted (empty for cache hits — nothing was searched).
	Grid        string   `json:"grid,omitempty"`
	GridsProbed []string `json:"grids_probed,omitempty"`
	// FinalLB/FinalUB are the bounds when the search stopped, and Partial
	// marks degraded answers (verified incumbent, bounds not met) — the
	// audit trail for every answer the anytime path handed out.
	FinalLB     int   `json:"final_lb,omitempty"`
	FinalUB     int   `json:"final_ub,omitempty"`
	Partial     bool  `json:"partial,omitempty"`
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	SolveNS     int64 `json:"solve_ns,omitempty"`
	TotalNS     int64 `json:"total_ns"`
	// TracePinned marks entries whose full span trace is retained beyond
	// the per-job window (slow, errored, canceled or partial jobs).
	TracePinned bool `json:"trace_pinned,omitempty"`
}

// Admission outcomes (the job statuses cover the rest).
const (
	outcomeShed     = "shed"
	outcomeDraining = "draining"
)

// The flight recorder's policy: the ring holds the last flightEntries
// request summaries, and up to maxPinnedTraces traces of jobs worth a
// post-mortem (shouldPin) outlive the traceJobs window and the job
// retention; a job at least slowTrace slow (queue wait + solve) is one.
const (
	flightEntries   = 256
	maxPinnedTraces = 32
	slowTrace       = 2 * time.Second
)

// flightRecorder is the in-memory black box: a fixed-size ring of recent
// FlightEntry summaries — every request gets one, including requests the
// admission path shed — plus the pinned traces of the jobs worth a
// post-mortem (slow, errored, canceled, partial).
type flightRecorder struct {
	pins *obsv.TraceStore

	mu   sync.Mutex
	ring []FlightEntry
	next int
	n    int
}

func newFlightRecorder() *flightRecorder {
	return &flightRecorder{
		pins: obsv.NewTraceStore(maxPinnedTraces),
		ring: make([]FlightEntry, flightEntries),
	}
}

// record adds one request summary to the ring.
func (f *flightRecorder) record(e FlightEntry) {
	mFlightEntries.Inc()
	f.mu.Lock()
	f.ring[f.next] = e
	f.next = (f.next + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
	f.mu.Unlock()
}

// shouldPin decides whether a finished job's trace is pinned: every
// non-done outcome is, every partial (degraded) answer is, and so is any
// job whose queue wait plus solve reached slowTrace.
func shouldPin(outcome string, partial bool, total time.Duration) bool {
	return outcome != StatusDone || partial || total >= slowTrace
}

// FlightDump is the /debug/flightrecorder (and SIGQUIT) body: the ring
// oldest-first plus the ids whose full traces are pinned.
type FlightDump struct {
	SlowThresholdMS float64       `json:"slow_threshold_ms"`
	Entries         []FlightEntry `json:"entries"`
	PinnedTraces    []string      `json:"pinned_traces,omitempty"`
}

// dump snapshots the recorder.
func (f *flightRecorder) dump() FlightDump {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := FlightDump{
		SlowThresholdMS: float64(slowTrace) / float64(time.Millisecond),
		Entries:         make([]FlightEntry, 0, f.n),
		PinnedTraces:    f.pins.IDs(),
	}
	for i := 0; i < f.n; i++ {
		d.Entries = append(d.Entries, f.ring[(f.next-f.n+i+len(f.ring))%len(f.ring)])
	}
	return d
}
