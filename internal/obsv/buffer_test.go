package obsv

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// lines counts the span lines a buffer retains.
func lines(buf *TraceBuffer) int {
	return bytes.Count(buf.Bytes(), []byte("\n"))
}

// TestTraceBufferCapturesValidTrace: a span tree emitted through a
// roomy buffer must read back as a schema-valid JSONL trace.
func TestTraceBufferCapturesValidTrace(t *testing.T) {
	buf := NewTraceBuffer(128, 1<<20)
	tr := NewTracer(buf)
	root := Start(tr, nil, "Job")
	root.SetStr("request_id", "r-test")
	for i := 0; i < 3; i++ {
		c := root.Child("Candidate")
		c.Child("SatSolve").End()
		c.End()
	}
	root.End()

	if got := lines(buf); got != 7 {
		t.Fatalf("spans = %d, want 7", got)
	}
	n, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if n != 7 {
		t.Fatalf("validated %d spans, want 7", n)
	}
	if !strings.Contains(string(buf.Bytes()), `"request_id":"r-test"`) {
		t.Fatal("request id attribute missing from trace")
	}
}

// TestTraceBufferBoundedGrowth: eviction must bound the buffer by span
// count, drop the OLDEST lines, and leave a trace that still passes the
// schema check (parents end after children, so every suffix resolves).
func TestTraceBufferBoundedGrowth(t *testing.T) {
	const max = 16
	buf := NewTraceBuffer(max, 1<<20)
	tr := NewTracer(buf)
	root := Start(tr, nil, "Job")
	for i := 0; i < 100; i++ {
		root.Child("CegarIter").End()
	}
	root.End()

	if got := lines(buf); got != max {
		t.Fatalf("spans = %d, want %d of 101", got, max)
	}
	if _, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("evicted trace invalid: %v", err)
	}
	// The root ends last, so it must have survived eviction.
	if !strings.Contains(string(buf.Bytes()), `"span":"Job"`) {
		t.Fatal("root span evicted")
	}
}

// TestTraceBufferByteBound: the byte bound evicts too, but never the
// final line.
func TestTraceBufferByteBound(t *testing.T) {
	buf := NewTraceBuffer(1<<20, 600)
	tr := NewTracer(buf)
	root := Start(tr, nil, "Job")
	for i := 0; i < 50; i++ {
		root.Child("CegarIter").End()
	}
	root.End()

	if n := lines(buf); n >= 51 {
		t.Fatalf("byte bound never evicted: %d of 51 spans kept", n)
	}
	if got := len(buf.Bytes()); got > 600+200 { // one line of slack
		t.Fatalf("buffer holds %d bytes, want ≈600", got)
	}
	if _, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("evicted trace invalid: %v", err)
	}
}

// TestTraceBufferConcurrentWrites: parallel span emission into one
// buffer must be race-free and keep the line structure intact (runs
// under -race in CI).
func TestTraceBufferConcurrentWrites(t *testing.T) {
	buf := NewTraceBuffer(64, 1<<20)
	tr := NewTracer(buf)
	root := Start(tr, nil, "Job")
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				root.Child("SatSolve").End()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	root.End()
	if _, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("concurrent trace invalid: %v", err)
	}
}

// TestTraceStoreEviction: the store keeps the newest limit traces, lists
// them oldest first, and replaces a trace in place without taking a
// slot.
func TestTraceStoreEviction(t *testing.T) {
	trace := func(s string) *TraceBuffer {
		b := NewTraceBuffer(0, 0)
		b.Write([]byte(s))
		return b
	}
	ts := NewTraceStore(2)
	ts.Put("a", trace("1"))
	ts.Put("b", trace("2"))
	ts.Put("b", trace("2b")) // replace: no eviction
	if _, ok := ts.Get("a"); !ok {
		t.Fatal("replace evicted an unrelated entry")
	}
	ts.Put("c", trace("3")) // evicts a, the oldest
	if _, ok := ts.Get("a"); ok {
		t.Fatal("oldest entry survived past the limit")
	}
	if b, ok := ts.Get("b"); !ok || string(b.Bytes()) != "2b" {
		t.Fatalf("entry b = %v, want the replacing trace", ok)
	}
	if _, ok := ts.Get("c"); !ok {
		t.Fatal("newest entry missing")
	}
	if ids := ts.IDs(); strings.Join(ids, ",") != "b,c" {
		t.Fatalf("IDs = %v, want [b c]", ids)
	}
}

// TestTraceStoreConcurrent: puts, gets and id lists from several
// goroutines at once keep the bound (run under -race in CI).
func TestTraceStoreConcurrent(t *testing.T) {
	ts := NewTraceStore(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("%d-%d", g, i)
				ts.Put(id, NewTraceBuffer(0, 0))
				ts.Get(id)
				if n := len(ts.IDs()); n > 8 {
					t.Errorf("%d ids held, want at most 8", n)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(ts.IDs()); n != 8 {
		t.Fatalf("%d ids after 400 puts, want 8", n)
	}
}
