package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/obsv"
)

// fig1 is the paper's running example f = abcd + a'b'c'd' (minimum 4×2).
func fig1() cube.Cover {
	return cube.NewCover(4,
		cube.FromLiterals([]int{0, 1, 2, 3}, nil),
		cube.FromLiterals(nil, []int{0, 1, 2, 3}))
}

// TestTraceCegarHierarchy pins the span taxonomy: one traced Synthesize
// on the CEGAR pool engine must emit the documented hierarchy
// Synthesize → Search → DichotomicStep → Candidate → CegarIter → SatSolve
// with the phase spans under the root, and the solver attributes on the
// SatSolve spans must be populated.
func TestTraceCegarHierarchy(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Tracer: obsv.NewTracer(&buf)}
	if _, err := Synthesize(fig1(), opt); err != nil {
		t.Fatal(err)
	}

	recs, err := obsv.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := obsv.ValidateRecords(recs); err != nil {
		t.Fatal(err)
	}

	byID := map[uint64]obsv.Record{}
	count := map[string]int{}
	for _, r := range recs {
		byID[r.ID] = r
		count[r.Span]++
	}
	for _, want := range []string{
		"Synthesize", "Minimize", "Bounds", "Search",
		"DichotomicStep", "Candidate", "CegarIter", "SatSolve",
	} {
		if count[want] == 0 {
			t.Errorf("trace has no %s span (got %v)", want, count)
		}
	}
	if count["Synthesize"] != 1 {
		t.Fatalf("want exactly one Synthesize root, got %d", count["Synthesize"])
	}

	parentName := func(r obsv.Record) string {
		p, ok := byID[r.Parent]
		if !ok {
			return ""
		}
		return p.Span
	}
	wantParent := map[string]string{
		"Minimize":       "Synthesize",
		"Bounds":         "Synthesize",
		"DSBound":        "Synthesize",
		"Search":         "Synthesize",
		"DichotomicStep": "Search",
		"CegarIter":      "Candidate",
		"SatSolve":       "CegarIter",
	}
	sawConflicts := false
	for _, r := range recs {
		if want, ok := wantParent[r.Span]; ok && parentName(r) != want {
			t.Errorf("%s span nests under %q, want %q", r.Span, parentName(r), want)
		}
		if r.Span == "Synthesize" && r.Parent != 0 {
			t.Error("Synthesize span is not a root")
		}
		if r.Span == "Candidate" {
			// Candidates hang off the search step here (DS can also parent
			// them in other configurations, but fig1 has too few products).
			if got := parentName(r); got != "DichotomicStep" {
				t.Errorf("Candidate nests under %q, want DichotomicStep", got)
			}
			if r.Attrs["grid"] == nil || r.Attrs["orient"] == nil || r.Attrs["status"] == nil {
				t.Errorf("Candidate span missing grid/orient/status attrs: %v", r.Attrs)
			}
		}
		if r.Span == "SatSolve" {
			if c, ok := r.Attrs["propagations"].(float64); ok && c > 0 {
				sawConflicts = true
			}
		}
	}
	if !sawConflicts {
		t.Error("no SatSolve span reported solver work")
	}
}

// TestTraceMetricsMonotoneCegar checks that the successive SatSolve spans
// of one CEGAR candidate report monotone lifetime solver totals, and that
// the registry's CEGAR counters advance across a synthesis.
func TestTraceMetricsMonotoneCegar(t *testing.T) {
	before := obsv.Default.Snapshot()

	var buf bytes.Buffer
	opt := Options{Tracer: obsv.NewTracer(&buf)}
	if _, err := Synthesize(fig1(), opt); err != nil {
		t.Fatal(err)
	}
	after := obsv.Default.Snapshot()

	for _, name := range []string{
		"janus_core_syntheses_total",
		"janus_core_dichotomic_steps_total",
		"janus_encode_candidates_total",
		"janus_encode_cegar_iters_total",
		"janus_encode_clauses_added_total",
		"janus_sat_solves_total",
		"janus_sat_propagations_total",
	} {
		if after.Get(name) <= before.Get(name) {
			t.Errorf("%s did not advance: %d -> %d", name, before.Get(name), after.Get(name))
		}
	}
	for name, v := range after.Counters {
		if v < before.Counters[name] {
			t.Errorf("counter %s went backwards: %d -> %d", name, before.Counters[name], v)
		}
	}

	recs, err := obsv.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Per-candidate lifetime totals (conflicts_total/propagations_total on
	// SatSolve spans) must be non-decreasing in span-id order, since ids
	// grow with start time and each candidate owns one persistent solver.
	byID := map[uint64]obsv.Record{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	candOf := func(r obsv.Record) uint64 {
		for p := r.Parent; p != 0; p = byID[p].Parent {
			if byID[p].Span == "Candidate" {
				return p
			}
		}
		return 0
	}
	last := map[uint64]float64{}
	solves := 0
	for _, r := range recs { // emission order = End order; ids order starts
		if r.Span != "SatSolve" {
			continue
		}
		cand := candOf(r)
		if cand == 0 {
			t.Fatalf("SatSolve span %d has no Candidate ancestor", r.ID)
		}
		total, _ := r.Attrs["propagations_total"].(float64)
		if total < last[cand] {
			t.Errorf("candidate %d propagations_total went backwards: %v -> %v",
				cand, last[cand], total)
		}
		last[cand] = total
		solves++
	}
	if solves == 0 {
		t.Fatal("trace has no SatSolve spans")
	}
}

// TestTraceConcurrentWorkers runs two traced syntheses as concurrent
// workers into one tracer; the trace must still be schema-valid (unique
// ids, resolvable parents) even though spans end concurrently. Run under
// -race this also exercises the tracer's emit path for data races.
func TestTraceConcurrentWorkers(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Tracer: obsv.NewTracer(&buf)}
	var wg sync.WaitGroup
	var errs [2]error
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Synthesize(fig1(), opt)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	recs, err := obsv.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := obsv.ValidateRecords(recs); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs {
		if r.Span == "Candidate" {
			n++
		}
	}
	if n < 2 {
		t.Fatalf("expected multiple Candidate spans from the parallel search, got %d", n)
	}
}

// TestTraceCtxCarried: a parent span in Options.TraceParent, with
// Options.Tracer nil, must drive the same span tree as Options.Tracer,
// nested under that span, and a request id attached to Options.Ctx is
// stamped on the Synthesize root — how the service traces each job.
func TestTraceCtxCarried(t *testing.T) {
	buf := obsv.NewTraceBuffer(0, 0)
	tracer := obsv.NewTracer(buf)
	job := obsv.Start(tracer, nil, "Job")
	ctx := obsv.ContextWithRequestID(context.Background(), "r-ctx-1")

	opt := Options{Ctx: ctx, TraceParent: job}
	res, err := Synthesize(fig1(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 8 {
		t.Fatalf("size = %d, want 8", res.Size)
	}
	if len(res.GridsProbed) == 0 {
		t.Fatal("no grids probed recorded")
	}
	job.End()

	recs, err := obsv.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := obsv.ValidateRecords(recs); err != nil {
		t.Fatal(err)
	}
	var jobID uint64
	for _, r := range recs {
		if r.Span == "Job" {
			jobID = r.ID
		}
	}
	if jobID == 0 {
		t.Fatal("no Job root span")
	}
	found := false
	for _, r := range recs {
		if r.Span != "Synthesize" {
			continue
		}
		found = true
		if r.Parent != jobID {
			t.Fatalf("Synthesize parent = %d, want the Job span %d", r.Parent, jobID)
		}
		if r.Attrs["request_id"] != "r-ctx-1" {
			t.Fatalf("request_id attr = %v, want r-ctx-1", r.Attrs["request_id"])
		}
	}
	if !found {
		t.Fatal("no Synthesize span under the ctx-carried tracer")
	}
}
