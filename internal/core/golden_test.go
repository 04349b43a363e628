package core

import (
	"fmt"
	"testing"

	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/sat"
)

// TestGoldenResults pins the search effort of three quick Table II
// instances under the paper workload's options (default engine policy,
// sequential, 1,000 conflicts per LM call). The shared engine's
// assumption vector is ordered, so every LM call makes the same decisions
// on every run; a solver refactor that keeps the search trajectory keeps
// these numbers, and a heuristic change moves them on purpose.
func TestGoldenResults(t *testing.T) {
	want := map[string]string{
		"mp2d_06":   "size=12 lm=2 clauses=11269 iters=0 engine=fresh",
		"dc1_03":    "size=12 lm=8 clauses=14895 iters=17 engine=mixed",
		"misex1_04": "size=12 lm=7 clauses=18083 iters=19 engine=mixed",
	}
	var opt Options
	opt.Encode.Limits = sat.Limits{MaxConflicts: 1000}
	for _, name := range []string{"mp2d_06", "dc1_03", "misex1_04"} {
		f, ok := benchdata.Lookup(name).Function()
		if !ok {
			t.Fatalf("%s: generator missed its profile", name)
		}
		for run := 0; run < 2; run++ {
			r, err := Synthesize(f, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := fmt.Sprintf("size=%d lm=%d clauses=%d iters=%d engine=%s",
				r.Size, r.LMSolved, r.ClausesAdded, r.CegarIters, r.Engine)
			if got != want[name] {
				t.Errorf("%s run %d: got %s, want %s", name, run, got, want[name])
			}
		}
	}
}
