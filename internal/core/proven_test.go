package core

import (
	"bytes"
	"testing"

	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/sat"
)

// TestUndecidedStepsRecorded runs misex1_06 at 1,000 conflicts per LM
// call. Its midpoint-18 step closes with 4x4, 5x3, 6x3 and 3x6 all
// Unknown, so the search converges (FinalLB == Size) while proving less:
// the step counts as undecided, its DichotomicStep span says so, its bound
// event names it, and ProvenLB stays below Size.
func TestUndecidedStepsRecorded(t *testing.T) {
	f, ok := benchdata.Lookup("misex1_06").Function()
	if !ok {
		t.Fatal("misex1_06: generator missed its profile")
	}
	var buf bytes.Buffer
	sink := &recordingSink{}
	var opt Options
	opt.Encode.Limits = sat.Limits{MaxConflicts: 1000}
	opt.Tracer = obsv.NewTracer(&buf)
	opt.Progress = sink
	r, err := Synthesize(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("size %d final_lb %d proven_lb %d lb %d undecided %d", r.Size, r.FinalLB, r.ProvenLB, r.LB, r.UndecidedSteps)
	if r.UndecidedSteps < 1 || !(r.ProvenLB < r.Size && r.Size == r.FinalLB) || r.ProvenLB < r.LB {
		t.Errorf("undecided %d, proven_lb %d, size %d, final_lb %d, lb %d; want an undecided step and LB <= proven_lb < size == final_lb",
			r.UndecidedSteps, r.ProvenLB, r.Size, r.FinalLB, r.LB)
	}

	recs, err := obsv.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := obsv.ValidateRecords(recs); err != nil {
		t.Fatal(err)
	}
	// The top-level search's steps, not those of the DS sub-syntheses.
	byID := map[uint64]obsv.Record{}
	for _, rec := range recs {
		byID[rec.ID] = rec
	}
	spans := 0
	for _, rec := range recs {
		search := byID[rec.Parent]
		if rec.Span == "DichotomicStep" && rec.Attrs["outcome"] == "undecided" &&
			byID[search.Parent].Parent == 0 {
			spans++
		}
	}
	bounds := 0
	for _, ev := range sink.events() {
		if ev.Kind == obsv.ProgressBound && ev.Method == "undecided" && !ev.Sub {
			bounds++
		}
	}
	if spans != r.UndecidedSteps || bounds != r.UndecidedSteps {
		t.Errorf("%d undecided steps, %d DichotomicStep spans and %d bound events say undecided", r.UndecidedSteps, spans, bounds)
	}
}

// TestProvenLBWithoutBudget checks that a search no budget stops proves
// what it converges to: every step is refuted or Sat.
func TestProvenLBWithoutBudget(t *testing.T) {
	for _, f := range []cube.Cover{fig1(), cube.NewCover(3,
		cube.FromLiterals([]int{0, 1}, nil),
		cube.FromLiterals([]int{0, 2}, nil),
		cube.FromLiterals([]int{1, 2}, nil))} {
		r, err := Synthesize(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.UndecidedSteps != 0 || r.ProvenLB != r.FinalLB || r.FinalLB != r.Size {
			t.Errorf("%v: undecided %d, proven_lb %d, final_lb %d, size %d; want 0 and all equal",
				f, r.UndecidedSteps, r.ProvenLB, r.FinalLB, r.Size)
		}
	}
}
