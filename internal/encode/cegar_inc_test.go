package encode

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/sat"
	"github.com/lattice-tools/janus/internal/truth"
)

// TestCegarIncrementalCounters checks the engine's headline property on a
// multi-counterexample instance: the clause volume actually handed to the
// persistent solver (AddedClauses) equals the final formula size, far
// below what rebuilding the solver each iteration would have re-added
// (RebuiltClauses).
func TestCegarIncrementalCounters(t *testing.T) {
	f, _ := benchdata.Lookup("dc1_02").Function()
	isop, dual := minimize.AutoDual(f)
	r, err := SolveLMCegar(isop, dual, lattice.Grid{M: 4, N: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != sat.Sat {
		t.Fatalf("status = %v", r.Status)
	}
	if r.CegarIters < 5 {
		t.Fatalf("want a multi-counterexample run (>= 5 iterations), got %d", r.CegarIters)
	}
	if r.AddedClauses != r.Clauses {
		t.Fatalf("incremental engine must add each clause once: added %d, formula has %d",
			r.AddedClauses, r.Clauses)
	}
	if r.RebuiltClauses <= r.AddedClauses {
		t.Fatalf("rebuild volume (%d) must exceed incremental volume (%d) over %d iterations",
			r.RebuiltClauses, r.AddedClauses, r.CegarIters)
	}
}

// TestCegarTablesBuiltOnce asserts the memoization contract of the loop:
// one truth-table build per distinct cover for a whole multi-iteration
// CEGAR solve (target plus at most one encoded cover per orientation),
// and zero builds on a repeat solve of the same instance.
func TestCegarTablesBuiltOnce(t *testing.T) {
	memo.Reset()
	f, _ := benchdata.Lookup("dc1_02").Function()
	isop, dual := minimize.AutoDual(f)
	g := lattice.Grid{M: 4, N: 3}

	before := truth.FromCoverCalls()
	r, err := SolveLMCegar(isop, dual, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	built := truth.FromCoverCalls() - before
	if built > 3 {
		t.Fatalf("%d truth tables built across %d CEGAR iterations, want at most 3 (target + per-orientation cover)",
			built, r.CegarIters)
	}

	before = truth.FromCoverCalls()
	if _, err := SolveLMCegar(isop, dual, g, Options{}); err != nil {
		t.Fatal(err)
	}
	if d := truth.FromCoverCalls() - before; d != 0 {
		t.Fatalf("repeat solve rebuilt %d truth tables, want 0 (memo hit)", d)
	}
	if s := memo.Snapshot(); s.TableHits == 0 || s.PathHits == 0 {
		t.Fatalf("expected table and path cache hits, got %+v", s)
	}
}

// TestCegarConflictBudgetPerCall pins the budget semantics of the
// persistent solver: MaxConflicts bounds each refinement's SAT call, not
// the cumulative conflicts of the whole loop, so a multi-iteration
// instance must still converge under a budget one above its hungriest
// call (a call stops when it reaches the budget) but below its total
// conflict count. The per-call counts come from the SatSolve spans of a
// traced unbudgeted run.
func TestCegarConflictBudgetPerCall(t *testing.T) {
	f, _ := benchdata.Lookup("dc1_02").Function()
	isop, dual := minimize.AutoDual(f)
	g := lattice.Grid{M: 4, N: 3}
	var buf bytes.Buffer
	root := obsv.Start(obsv.NewTracer(&buf), nil, "Test")
	full, err := SolveLMCegar(isop, dual, g, Options{Span: root})
	root.End()
	if err != nil || full.Status != sat.Sat {
		t.Fatalf("unbudgeted run: %v %v", full.Status, err)
	}
	var calls, hungriest int64
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec obsv.Record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Span == "SatSolve" {
			calls++
			hungriest = max(hungriest, int64(rec.Attrs["conflicts"].(float64)))
		}
	}
	if calls < 2 || hungriest+1 >= full.SolverStat.Conflicts {
		t.Skip("no call-by-call budget fits below the total on this instance")
	}
	// A cumulative interpretation would stop this run with Unknown.
	r, err := SolveLMCegar(isop, dual, g, Options{Limits: sat.Limits{MaxConflicts: hungriest + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != sat.Sat {
		t.Fatalf("per-call budget %d (total %d over %d calls): status %v, want SAT",
			hungriest+1, full.SolverStat.Conflicts, calls, r.Status)
	}
}
