package core

import (
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/encode"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/sat"
)

// TestProfileClpl00 exists to profile a single mid-size synthesis run:
//
//	go test -run TestProfileClpl00 -cpuprofile cpu.out ./internal/core
func TestProfileClpl00(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling helper")
	}
	f, _ := benchdata.Lookup("clpl_00").Function()
	r, err := Synthesize(f, Options{Budget: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clpl_00: %v size=%d lb=%d nub=%d lm=%d elapsed=%v",
		r.Grid, r.Size, r.LB, r.NUB, r.LMSolved, r.Elapsed)
}

// TestProfileClpl00Cegar profiles the CEGAR refinement loop on its own:
// clpl_00's LM problem at the 4x4 grid its search settles on, decided by
// SolveLMCegar on a one-grid pool of its own, so no other candidate's
// skeletons or counterexamples feed it.
//
//	go test -run TestProfileClpl00Cegar -cpuprofile cpu.out ./internal/core
func TestProfileClpl00Cegar(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling helper")
	}
	f, _ := benchdata.Lookup("clpl_00").Function()
	isop, dual := minimize.AutoDual(f)
	g := lattice.Grid{M: 4, N: 4}
	start := time.Now()
	r, err := encode.SolveLMCegar(isop, dual, g, encode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != sat.Sat || !r.Assignment.Realizes(f) {
		t.Fatalf("clpl_00 on %v: status %v, want a realizing assignment", g, r.Status)
	}
	if r.CegarIters == 0 {
		t.Fatal("the solve must run the refinement loop")
	}
	t.Logf("clpl_00 cegar: %v dual=%v iters=%d added=%d rebuilt=%d conflicts=%d elapsed=%v",
		g, r.UsedDual, r.CegarIters, r.AddedClauses, r.RebuiltClauses,
		r.SolverStat.Conflicts, time.Since(start))
}
