package obsv

import (
	"bytes"
	"slices"
	"sync"
)

// TraceBuffer default bounds: enough for the full span tree of a typical
// service job (a few hundred spans) with headroom, while keeping the
// worst case per retained job around a megabyte.
const (
	DefaultTraceSpans = 4096
	DefaultTraceBytes = 1 << 20
)

// TraceBuffer is a bounded in-memory JSONL sink for a Tracer: the
// service gives each job its own tracer writing here, keeps the finished
// buffer in a TraceStore, and serves it back via GET /v1/jobs/{id}/trace.
//
// Each Write call is one span line (the Tracer emits exactly one line
// per call, under its own mutex). When a bound is exceeded the OLDEST
// lines are evicted, which keeps the remaining trace schema-valid:
// spans are emitted in end order and a parent always ends after its
// children, so every suffix of the line stream resolves all parent
// references, and the job's root span — last to end — survives any
// eviction.
type TraceBuffer struct {
	mu       sync.Mutex
	lines    [][]byte
	bytes    int64
	maxSpans int
	maxBytes int64
}

// NewTraceBuffer returns a buffer bounded by maxSpans lines and maxBytes
// total bytes; zero or negative values take the defaults.
func NewTraceBuffer(maxSpans int, maxBytes int64) *TraceBuffer {
	if maxSpans <= 0 {
		maxSpans = DefaultTraceSpans
	}
	if maxBytes <= 0 {
		maxBytes = DefaultTraceBytes
	}
	return &TraceBuffer{maxSpans: maxSpans, maxBytes: maxBytes}
}

// Write stores one span line, evicting the oldest lines when a bound is
// exceeded. It never fails; implements io.Writer for NewTracer.
func (b *TraceBuffer) Write(p []byte) (int, error) {
	line := append([]byte(nil), p...)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, line)
	b.bytes += int64(len(line))
	for len(b.lines) > b.maxSpans || (b.bytes > b.maxBytes && len(b.lines) > 1) {
		b.bytes -= int64(len(b.lines[0]))
		b.lines[0] = nil
		b.lines = b.lines[1:]
	}
	return len(p), nil
}

// Bytes returns the retained JSONL as one byte slice (a copy).
func (b *TraceBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	var buf bytes.Buffer
	buf.Grow(int(b.bytes))
	for _, l := range b.lines {
		buf.Write(l)
	}
	return buf.Bytes()
}

// TraceStore keeps finished traces by id: the newest limit of them, the
// oldest evicted first. It holds the buffers themselves, not copies. A
// buffer is final once its root span (janusd's Job, janusfront's Route)
// has ended, so callers put it only then.
type TraceStore struct {
	mu    sync.Mutex
	limit int
	m     map[string]*TraceBuffer
	order []string // ids in first-put order, oldest first
}

// NewTraceStore returns a store that keeps up to limit traces.
func NewTraceStore(limit int) *TraceStore {
	return &TraceStore{limit: limit, m: make(map[string]*TraceBuffer, limit)}
}

// Put stores a finished trace under id, evicting the oldest beyond the
// bound. Putting an id again replaces its trace without taking a slot.
func (s *TraceStore) Put(id string, b *TraceBuffer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; !ok {
		s.order = append(s.order, id)
		if len(s.order) > s.limit {
			delete(s.m, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.m[id] = b
}

// Get returns the trace stored under id.
func (s *TraceStore) Get(id string) (*TraceBuffer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[id]
	return b, ok
}

// IDs returns the stored ids, oldest first.
func (s *TraceStore) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.order)
}
