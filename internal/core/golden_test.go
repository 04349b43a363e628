package core

import (
	"fmt"
	"testing"

	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/sat"
)

// TestGoldenResults pins the search effort of three quick Table II
// instances under the paper workload's options (sequential, 1,000
// conflicts per LM call), twice each. The pool's assumption vector is
// ordered, so every LM call makes the same decisions on every run; a
// solver refactor that keeps the search trajectory keeps these numbers,
// and a heuristic change moves them on purpose.
func TestGoldenResults(t *testing.T) {
	want := map[string]string{
		"mp2d_06":   "size=12 lm=2 clauses=5227 iters=24",
		"dc1_03":    "size=12 lm=8 clauses=8511 iters=37",
		"misex1_04": "size=12 lm=7 clauses=16775 iters=31",
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
			got := fmt.Sprintf("size=%d lm=%d clauses=%d iters=%d",
				r.Size, r.LMSolved, r.ClausesAdded, r.CegarIters)
			if got != want[name] {
				t.Errorf("%s run %d: got %s, want %s", name, run, got, want[name])
			}
		}
	}
}

// TestGoldenPoolSearch pins the search the shared assumption pool runs
// under the paper workload's options (sequential, 1,000 conflicts per LM
// call):
// four Table II instances through Synthesize and Table III's bw through
// SynthesizeMulti with row reduction. Each row pins the answer, the LM
// solves, the clauses handed to the solver, the CEGAR iterations and the
// SAT effort (the janus_sat_conflicts_total and
// janus_sat_propagations_total deltas). Any change to clause order,
// variable numbering or assumption order moves the SAT effort.
func TestGoldenPoolSearch(t *testing.T) {
	want := map[string]string{
		"mp2d_06":   "size=12 lm=2 clauses=5227 iters=24 conflicts=2030 propagations=162178",
		"dc1_03":    "size=12 lm=8 clauses=8511 iters=37 conflicts=3388 propagations=198047",
		"misex1_04": "size=12 lm=7 clauses=16775 iters=31 conflicts=4992 propagations=458836",
		"ex5_06":    "size=18 lm=17 clauses=106538 iters=109 conflicts=28409 propagations=4456948",
		"bw":        "size=312 lm=49 clauses=60993 iters=224 conflicts=13766 propagations=1003735",
	}
	conflicts := obsv.Default.Counter("janus_sat_conflicts_total")
	props := obsv.Default.Counter("janus_sat_propagations_total")
	for _, name := range []string{"mp2d_06", "dc1_03", "misex1_04", "ex5_06", "bw"} {
		var opt Options
		opt.Encode.Limits = sat.Limits{MaxConflicts: 1000}
		c0, p0 := conflicts.Value(), props.Value()
		var size, lm int
		var clauses, iters int64
		if mi := benchdata.LookupMulti(name); mi != nil {
			mr, err := SynthesizeMulti(mi.Outputs(), opt, true)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			size, lm, clauses, iters = mr.Lattice.Size(), mr.LMSolved, mr.ClausesAdded, mr.CegarIters
		} else {
			f, ok := benchdata.Lookup(name).Function()
			if !ok {
				t.Fatalf("%s: generator missed its profile", name)
			}
			r, err := Synthesize(f, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			size, lm, clauses, iters = r.Size, r.LMSolved, r.ClausesAdded, r.CegarIters
		}
		got := fmt.Sprintf("size=%d lm=%d clauses=%d iters=%d conflicts=%d propagations=%d",
			size, lm, clauses, iters, conflicts.Value()-c0, props.Value()-p0)
		if got != want[name] {
			t.Errorf("%s: got %s, want %s", name, got, want[name])
		}
	}
}
