package service

import (
	"sync"
	"time"
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
	// the normal per-job window (slow, errored, or deadline-bounded jobs).
	TracePinned bool `json:"trace_pinned,omitempty"`
}

// Admission outcomes (the job statuses cover the rest).
const (
	outcomeShed     = "shed"
	outcomeDraining = "draining"
)

// maxPinnedTraces bounds the traces kept alive by the pin rule, on top
// of the TraceJobs recency window.
const maxPinnedTraces = 32

// flightRecorder is the in-memory black box: a fixed-size ring of recent
// FlightEntry summaries — every request gets one, including requests the
// admission path shed — plus pinned full traces for the requests worth a
// post-mortem (slow, errored, canceled). A nil recorder no-ops, so the
// disabled path costs one pointer check.
type flightRecorder struct {
	slow time.Duration // pin threshold; 0 disables the slow rule

	mu          sync.Mutex
	ring        []FlightEntry
	next        int
	n           int
	pinned      map[string][]byte
	pinnedOrder []string
}

func newFlightRecorder(size int, slow time.Duration) *flightRecorder {
	return &flightRecorder{
		slow:   slow,
		ring:   make([]FlightEntry, size),
		pinned: make(map[string][]byte),
	}
}

// record adds one request summary to the ring.
func (f *flightRecorder) record(e FlightEntry) {
	if f == nil {
		return
	}
	mFlightEntries.Inc()
	f.mu.Lock()
	f.ring[f.next] = e
	f.next = (f.next + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
	f.mu.Unlock()
}

// shouldPin decides whether a finished job's full trace is worth
// retaining: every non-done outcome is, every partial (degraded) answer
// is, and so is any job whose queue-plus-solve time reached the slow
// threshold.
func (f *flightRecorder) shouldPin(outcome string, partial bool, total time.Duration) bool {
	if f == nil {
		return false
	}
	if outcome != StatusDone || partial {
		return true
	}
	return f.slow > 0 && total >= f.slow
}

// pin retains a finished job's JSONL trace, evicting the oldest pin
// beyond maxPinnedTraces.
func (f *flightRecorder) pin(jobID string, jsonl []byte) {
	if f == nil || len(jsonl) == 0 {
		return
	}
	mTracesPinned.Inc()
	f.mu.Lock()
	if _, ok := f.pinned[jobID]; !ok {
		f.pinnedOrder = append(f.pinnedOrder, jobID)
		for len(f.pinnedOrder) > maxPinnedTraces {
			delete(f.pinned, f.pinnedOrder[0])
			f.pinnedOrder = f.pinnedOrder[1:]
		}
	}
	f.pinned[jobID] = jsonl
	f.mu.Unlock()
}

// pinnedTrace returns a pinned trace by job id.
func (f *flightRecorder) pinnedTrace(jobID string) ([]byte, bool) {
	if f == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.pinned[jobID]
	return b, ok
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
	if f == nil {
		return FlightDump{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d := FlightDump{
		SlowThresholdMS: float64(f.slow) / float64(time.Millisecond),
		Entries:         make([]FlightEntry, 0, f.n),
		PinnedTraces:    append([]string(nil), f.pinnedOrder...),
	}
	for i := 0; i < f.n; i++ {
		d.Entries = append(d.Entries, f.ring[(f.next-f.n+i+len(f.ring))%len(f.ring)])
	}
	return d
}
