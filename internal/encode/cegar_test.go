package encode

import (
	"math/rand"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/sat"
)

// TestCegarAgreesWithMonolithic is the engine's core soundness check: on
// random small LM problems, the CEGAR engine and the monolithic encoding
// must agree on satisfiability, and SAT answers must be verified.
func TestCegarAgreesWithMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	grids := []lattice.Grid{{M: 2, N: 2}, {M: 3, N: 2}, {M: 2, N: 3}, {M: 3, N: 3}, {M: 4, N: 2}}
	for trial := 0; trial < 20; trial++ {
		raw := randomFunc(rng, 3, 3)
		f := minimize.Auto(raw)
		if f.IsZero() || f.IsOne() {
			continue
		}
		d := minimize.Auto(f.Dual())
		for _, g := range grids {
			mono, err := SolveLM(f, d, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ceg, err := SolveLMCegar(f, d, g, Options{})
			if err != nil {
				t.Fatalf("cegar %v: %v", g, err)
			}
			if (mono.Status == sat.Sat) != (ceg.Status == sat.Sat) {
				t.Fatalf("trial %d grid %v: mono=%v cegar=%v for %v",
					trial, g, mono.Status, ceg.Status, f)
			}
			if ceg.Status == sat.Sat && !ceg.Assignment.Realizes(f) {
				t.Fatalf("trial %d grid %v: CEGAR answer unverified", trial, g)
			}
		}
	}
}

func TestCegarFig1(t *testing.T) {
	f, d := isopPair(fig1())
	r, err := SolveLMCegar(f, d, lattice.Grid{M: 4, N: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != sat.Sat || !r.Assignment.Realizes(f) {
		t.Fatalf("status = %v", r.Status)
	}
	// And the infeasible 3×3 case must come back UNSAT.
	r, err = SolveLMCegar(f, d, lattice.Grid{M: 3, N: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != sat.Unsat {
		t.Fatalf("3x3 status = %v, want UNSAT", r.Status)
	}
}

// TestCegarLazyEntryCount documents the engine's point: the number of
// constrained entries (visible through the variable count) stays far
// below the monolithic encoding's.
func TestCegarLazyEntryCount(t *testing.T) {
	// 6-input function: the monolithic encoding constrains 64 entries.
	f := minimize.Auto(randomFunc(rand.New(rand.NewSource(7)), 6, 3))
	if f.IsZero() || f.IsOne() {
		t.Skip("degenerate draw")
	}
	d := minimize.Auto(f.Dual())
	g := lattice.Grid{M: 3, N: 4}
	mono, err := SolveLM(f, d, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ceg, err := SolveLMCegar(f, d, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if (mono.Status == sat.Sat) != (ceg.Status == sat.Sat) {
		t.Fatalf("engines disagree: %v vs %v", mono.Status, ceg.Status)
	}
	if ceg.Vars >= mono.Vars {
		t.Fatalf("CEGAR did not stay lazy: %d vs %d vars", ceg.Vars, mono.Vars)
	}
}

func TestCegarConstants(t *testing.T) {
	r, err := SolveLMCegar(cube.Zero(2), cube.One(2), lattice.Grid{M: 2, N: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != sat.Sat || !r.Assignment.Realizes(cube.Zero(2)) {
		t.Fatal("constant-0 CEGAR mapping wrong")
	}
}

// TestCegarHonorsInterrupt: a caller-supplied interrupt must stop the
// refinement loop promptly with an Unknown verdict.
func TestCegarHonorsInterrupt(t *testing.T) {
	f, d := isopPair(fig1())
	stop := make(chan struct{})
	close(stop)
	opt := Options{}
	opt.Limits.Interrupt = stop
	start := time.Now()
	r, err := SolveLMCegar(f, d, lattice.Grid{M: 4, N: 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != sat.Unknown {
		t.Fatalf("status = %v, want Unknown under pre-closed interrupt", r.Status)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("interrupted solve took %v", e)
	}
}
