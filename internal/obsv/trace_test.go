package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// collect parses the tracer's output and indexes the records by id.
func collect(t *testing.T, buf *bytes.Buffer) (recs []Record, byID map[uint64]Record) {
	t.Helper()
	recs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	byID = make(map[uint64]Record, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	return recs, byID
}

func TestSpanNestingAndAttrs(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)

	root := Start(tr, nil, "Synthesize")
	root.SetInt("inputs", 4)
	step := root.Child("DichotomicStep")
	step.SetInt("mp", 8)
	cand := step.Child("Candidate")
	cand.SetStr("grid", "4x2")
	cand.SetBool("dual", true)
	cand.End()
	step.End()
	root.End()

	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	recs, byID := collect(t, &buf)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if err := ValidateRecords(recs); err != nil {
		t.Fatalf("ValidateRecords: %v", err)
	}
	// End order is children-first.
	if recs[0].Span != "Candidate" || recs[1].Span != "DichotomicStep" || recs[2].Span != "Synthesize" {
		t.Fatalf("unexpected emit order: %s %s %s", recs[0].Span, recs[1].Span, recs[2].Span)
	}
	c := recs[0]
	if got := byID[c.Parent].Span; got != "DichotomicStep" {
		t.Fatalf("Candidate parent = %q, want DichotomicStep", got)
	}
	if got := byID[byID[c.Parent].Parent].Span; got != "Synthesize" {
		t.Fatalf("grandparent = %q, want Synthesize", got)
	}
	if v, _ := c.Attrs["grid"].(string); v != "4x2" {
		t.Fatalf("grid attr = %v", c.Attrs["grid"])
	}
	if v, _ := c.Attrs["dual"].(bool); !v {
		t.Fatalf("dual attr = %v", c.Attrs["dual"])
	}
}

// TestSpanConcurrent drives one tracer from many goroutines (the shape of
// an overlapped LM call: one shared parent, per-goroutine subtrees). Run with
// -race this is the data-race regression test for Tracer and Span.
func TestSpanConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := Start(tr, nil, "Synthesize")

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cand := root.Child("Candidate")
				cand.SetInt("worker", int64(w))
				solve := cand.Child("SatSolve")
				solve.SetInt("conflicts", int64(i))
				solve.End()
				cand.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()

	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	recs, byID := collect(t, &buf)
	want := 1 + 2*workers*perWorker
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	if err := ValidateRecords(recs); err != nil {
		t.Fatalf("ValidateRecords: %v", err)
	}
	for _, r := range recs {
		switch r.Span {
		case "Candidate":
			if byID[r.Parent].Span != "Synthesize" {
				t.Fatalf("Candidate parent = %q", byID[r.Parent].Span)
			}
		case "SatSolve":
			if byID[r.Parent].Span != "Candidate" {
				t.Fatalf("SatSolve parent = %q", byID[r.Parent].Span)
			}
		}
	}
}

// TestNilTracerZeroCost pins the off-switch: nil tracers yield nil spans
// and every operation on them is a safe no-op.
func TestNilTracerZeroCost(t *testing.T) {
	sp := Start(nil, nil, "Synthesize")
	if sp != nil {
		t.Fatal("nil tracer must produce a nil span")
	}
	child := sp.Child("x")
	if child != nil {
		t.Fatal("nil span must produce nil children")
	}
	sp.SetInt("a", 1)
	sp.SetStr("b", "v")
	sp.SetBool("c", true)
	sp.End()
	var tr *Tracer
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"not json":         "nope\n",
		"missing name":     `{"id":1,"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:00Z","dur_ns":0}` + "\n",
		"zero id":          `{"span":"S","id":0,"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:00Z","dur_ns":0}` + "\n",
		"missing parent":   `{"span":"S","id":1,"parent":9,"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:00Z","dur_ns":0}` + "\n",
		"bad duration":     `{"span":"S","id":1,"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:01Z","dur_ns":7}` + "\n",
		"end before start": `{"span":"S","id":1,"start":"2026-01-01T00:00:01Z","end":"2026-01-01T00:00:00Z","dur_ns":-1000000000}` + "\n",
		"bad speculative":  `{"span":"Candidate","id":1,"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:00Z","dur_ns":0,"attrs":{"speculative":"maybe"}}` + "\n",
		"duplicate id": `{"span":"S","id":1,"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:00Z","dur_ns":0}` + "\n" +
			`{"span":"T","id":1,"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:00Z","dur_ns":0}` + "\n",
	}
	for name, in := range cases {
		if _, err := ValidateTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	sp := Start(tr, nil, "SatSolve")
	sp.SetInt("conflicts", 42)
	sp.End()
	n, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round-trip validation: %v", err)
	}
	if n != 1 {
		t.Fatalf("span count = %d, want 1", n)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"span", "id", "start", "end", "dur_ns", "attrs"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("record missing %q: %v", key, raw)
		}
	}

	// The verdicts of speculative LM attempts validate.
	var spec bytes.Buffer
	st := NewTracer(&spec)
	for _, verdict := range []string{"adopted", "discarded"} {
		cand := Start(st, nil, "Candidate")
		cand.SetStr("speculative", verdict)
		cand.End()
	}
	if _, err := ValidateTrace(&spec); err != nil {
		t.Fatalf("speculative verdicts: %v", err)
	}
}
