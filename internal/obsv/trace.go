// Package obsv is the observability substrate of the synthesis pipeline:
// a hierarchical span tracer emitting JSONL, a process-wide metrics
// registry of atomic counters/gauges/histograms, and a debug HTTP
// endpoint serving the registry snapshot next to net/http/pprof.
//
// Everything is stdlib-only and nil-safe: a nil *Tracer produces nil
// *Spans, and every Span/metric method no-ops on a nil receiver, so
// instrumented hot paths pay one pointer check when observability is off.
// The span taxonomy of the synthesis pipeline is
//
//	Synthesize → DichotomicStep → Candidate(m×n,orient) → CegarIter → SatSolve
//
// with Minimize/Bounds/DSBound phase spans under Synthesize. Metric names
// follow the scheme janus_<pkg>_<name>, suffixed _total for monotone
// counters and _ns_total for accumulated durations (see DESIGN.md).
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer emits completed spans as JSON Lines, one object per span, in
// span-end order (children precede their parents). It is safe for
// concurrent use by multiple goroutines; a nil Tracer discards everything.
type Tracer struct {
	mu      sync.Mutex
	w       io.Writer
	err     error
	traceID string
	proc    string
	nextID  atomic.Uint64
}

// NewTracer returns a tracer writing JSONL records to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// SetTrace tags every span this tracer emits with a fleet-wide trace id
// and a process ("hop") label. The tag is what lets two processes' JSONL
// streams be stitched into one trace: the front mints the trace id, the
// backend adopts it from the X-Janus-Trace header, and tracesum groups
// per hop. Untagged tracers emit exactly the pre-fleet schema (the
// fields are omitempty). Nil-safe.
func (t *Tracer) SetTrace(traceID, proc string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.traceID, t.proc = traceID, proc
	t.mu.Unlock()
}

// Err returns the first write or encoding error the tracer hit, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Record is the JSONL schema of one completed span. Parent is 0 for root
// spans; IDs are unique per tracer and start at 1.
//
// TraceID, Proc, and RemoteParent are the multi-process extension: a
// tracer tagged via SetTrace stamps every record with the fleet-wide
// trace id and its hop name, and a root span opened with StartRemote
// carries the span id of its parent in ANOTHER process's stream.
// RemoteParent is advisory until stitching: within one process's stream
// the span is still a root (Parent 0), so a standalone backend trace
// stays schema-valid; StitchRecords resolves it into a real parent edge.
type Record struct {
	Span         string         `json:"span"`
	ID           uint64         `json:"id"`
	Parent       uint64         `json:"parent,omitempty"`
	TraceID      string         `json:"trace_id,omitempty"`
	Proc         string         `json:"proc,omitempty"`
	RemoteParent uint64         `json:"remote_parent,omitempty"`
	Start        time.Time      `json:"start"`
	End          time.Time      `json:"end"`
	DurNS        int64          `json:"dur_ns"`
	Attrs        map[string]any `json:"attrs,omitempty"`
}

// Span is one timed, attributed node of the trace tree. All methods are
// nil-safe no-ops, so call sites need no enablement checks.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	remote uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

// Start opens a span named name under parent. Either t or parent may be
// nil: a nil parent makes a root span, and when t is nil the parent's
// tracer is used. With both nil the span is nil and tracing is off.
func Start(t *Tracer, parent *Span, name string) *Span {
	if t == nil {
		if parent == nil {
			return nil
		}
		t = parent.t
	}
	sp := &Span{t: t, id: t.nextID.Add(1), name: name, start: time.Now()}
	if parent != nil {
		sp.parent = parent.id
	}
	return sp
}

// StartRemote opens a root span whose parent lives in another process's
// trace stream: remoteParent is a span id minted by that process's
// tracer (carried here in an X-Janus-Trace header). The span is a local
// root — Parent stays 0 so the stream validates standalone — and the
// remote edge is recorded for StitchRecords to resolve. A zero
// remoteParent is exactly Start(t, nil, name).
func StartRemote(t *Tracer, remoteParent uint64, name string) *Span {
	sp := Start(t, nil, name)
	if sp != nil {
		sp.remote = remoteParent
	}
	return sp
}

// ID returns the span's tracer-local id (0 on a nil span) — the value a
// process puts in an outbound X-Janus-Trace header so the next hop can
// root under it.
func (sp *Span) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.id
}

// Child opens a sub-span; on a nil receiver it returns nil.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return Start(sp.t, sp, name)
}

// SetInt records an integer attribute.
func (sp *Span) SetInt(key string, v int64) {
	if sp == nil {
		return
	}
	sp.set(key, v)
}

// SetStr records a string attribute.
func (sp *Span) SetStr(key, v string) {
	if sp == nil {
		return
	}
	sp.set(key, v)
}

// SetBool records a boolean attribute.
func (sp *Span) SetBool(key string, v bool) {
	if sp == nil {
		return
	}
	sp.set(key, v)
}

func (sp *Span) set(key string, v any) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.attrs == nil {
		sp.attrs = make(map[string]any)
	}
	sp.attrs[key] = v
}

// End closes the span and emits its record. Ending twice emits once.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	// Round(0) strips the monotonic reading so the duration matches the
	// serialized wall-clock timestamps exactly (ValidateTrace checks it).
	start, end := sp.start.Round(0), time.Now().Round(0)
	rec := Record{
		Span:         sp.name,
		ID:           sp.id,
		Parent:       sp.parent,
		RemoteParent: sp.remote,
		Start:        start,
		End:          end,
		DurNS:        end.Sub(start).Nanoseconds(),
		Attrs:        sp.attrs,
	}
	sp.mu.Unlock()
	sp.t.emit(rec)
}

func (t *Tracer) emit(rec Record) {
	t.mu.Lock()
	rec.TraceID, rec.Proc = t.traceID, t.proc
	t.mu.Unlock()
	b, err := json.Marshal(rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = fmt.Errorf("obsv: marshal span %q: %w", rec.Span, err)
		return
	}
	b = append(b, '\n')
	if _, err := t.w.Write(b); err != nil {
		t.err = fmt.Errorf("obsv: write span %q: %w", rec.Span, err)
	}
}
