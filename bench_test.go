package janus

// Benchmark harness: one benchmark per table/figure of the paper, plus
// ablation benches for the design choices DESIGN.md calls out. Lattice
// sizes are reported through b.ReportMetric as "switches" so the shape of
// the paper's tables (who wins, by how much) is visible in -bench output;
// EXPERIMENTS.md records paper-vs-measured values. The full 48-instance
// Table II sweep lives in cmd/tableii (it needs minutes); the benches
// cover a representative spread.

import (
	"fmt"
	"testing"

	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/bounds"
	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/encode"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/sat"
)

// --- Table I ------------------------------------------------------------

// BenchmarkTableI enumerates the lattice function and dual product counts
// (Table I). The 7x7/8x8 corner costs seconds, so the bench sweeps to 6
// and the pinned full-table values live in the lattice package tests.
func BenchmarkTableI(b *testing.B) {
	for _, mn := range []lattice.Grid{{M: 2, N: 2}, {M: 4, N: 4}, {M: 6, N: 6}, {M: 6, N: 8}} {
		b.Run(mn.String(), func(b *testing.B) {
			var primal, dual int64
			for i := 0; i < b.N; i++ {
				primal = mn.CountPaths()
				dual = mn.CountDualPaths()
			}
			b.ReportMetric(float64(primal), "products")
			b.ReportMetric(float64(dual), "dual-products")
		})
	}
}

// --- Table II -----------------------------------------------------------

var tableIIBenchSet = []string{
	"b12_03", "c17_01", "dc1_00", "dc1_02", "dc1_03",
	"misex1_00", "misex1_04", "mp2d_06", "ex5_14", "b12_00",
}

func benchLimits() sat.Limits { return sat.Limits{MaxConflicts: 50000} }

// BenchmarkTableIIJanus runs JANUS on a representative Table II subset.
func BenchmarkTableIIJanus(b *testing.B) {
	for _, name := range tableIIBenchSet {
		inst := benchdata.Lookup(name)
		f, _ := inst.Function()
		b.Run(name, func(b *testing.B) {
			var size int
			opt := core.Options{}
			opt.Encode.Limits = benchLimits()
			for i := 0; i < b.N; i++ {
				r, err := core.Synthesize(f, opt)
				if err != nil {
					b.Fatal(err)
				}
				size = r.Size
			}
			b.ReportMetric(float64(size), "switches")
			b.ReportMetric(float64(parseSize(inst.Paper["janus"])), "paper-switches")
		})
	}
}

// BenchmarkTableIIMethods compares JANUS with the exact [6], approximate
// [6] and heuristic [11] baselines on a few instances (the Table II
// algorithm columns).
func BenchmarkTableIIMethods(b *testing.B) {
	insts := []string{"dc1_00", "misex1_00", "mp2d_06"}
	type runner struct {
		name string
		run  func(f Cover) (int, error)
	}
	runners := []runner{
		{"janus", func(f Cover) (int, error) {
			opt := core.Options{}
			opt.Encode.Limits = benchLimits()
			r, err := core.Synthesize(f, opt)
			return r.Size, err
		}},
		{"exact6", func(f Cover) (int, error) {
			r, err := ExactBaseline(f, BaselineOptions{Limits: benchLimits()})
			return r.Size, err
		}},
		{"approx6", func(f Cover) (int, error) {
			r, err := ApproxBaseline(f, BaselineOptions{Limits: benchLimits()})
			return r.Size, err
		}},
		{"heur11", func(f Cover) (int, error) {
			r, err := HeuristicBaseline(f, BaselineOptions{Limits: benchLimits()})
			return r.Size, err
		}},
	}
	for _, name := range insts {
		f, _ := benchdata.Lookup(name).Function()
		for _, rn := range runners {
			b.Run(name+"/"+rn.name, func(b *testing.B) {
				var size int
				for i := 0; i < b.N; i++ {
					s, err := rn.run(f)
					if err != nil {
						b.Fatal(err)
					}
					size = s
				}
				b.ReportMetric(float64(size), "switches")
			})
		}
	}
}

// BenchmarkTableIIBounds measures the search-space reduction of the new
// upper bounds (the lb/oub/nub columns): nub/oub shrinkage is the paper's
// 42.8% headline.
func BenchmarkTableIIBounds(b *testing.B) {
	var sumO, sumN float64
	for _, name := range tableIIBenchSet {
		f, _ := benchdata.Lookup(name).Function()
		isop, dual := minimize.AutoDual(f)
		b.Run(name, func(b *testing.B) {
			var oub, nub int
			for i := 0; i < b.N; i++ {
				plain := bounds.All(isop, dual, false)
				improved := bounds.All(isop, dual, true)
				oub, nub = plain[0].Size(), improved[0].Size()
			}
			b.ReportMetric(float64(oub), "oub")
			b.ReportMetric(float64(nub), "nub")
			sumO += float64(oub)
			sumN += float64(nub)
		})
	}
	if sumO > 0 {
		b.ReportMetric(100*(1-sumN/sumO), "avg-reduction-%")
	}
}

// --- Table III ----------------------------------------------------------

// BenchmarkTableIII compares the straight-forward packing with JANUS-MF
// on the squar5 block (the exactly-reconstructed Table III instance).
func BenchmarkTableIII(b *testing.B) {
	mi := benchdata.LookupMulti("squar5")
	outs := mi.Outputs()
	opt := core.Options{}
	opt.Encode.Limits = benchLimits()
	b.Run("squar5/straight-forward", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			mr, err := core.SynthesizeMulti(outs, opt, false)
			if err != nil {
				b.Fatal(err)
			}
			size = mr.Lattice.Size()
		}
		b.ReportMetric(float64(size), "switches")
		b.ReportMetric(float64(mi.PaperSFSize), "paper-switches")
	})
	b.Run("squar5/janus-mf", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			mr, err := core.SynthesizeMulti(outs, opt, true)
			if err != nil {
				b.Fatal(err)
			}
			size = mr.Lattice.Size()
		}
		b.ReportMetric(float64(size), "switches")
		b.ReportMetric(float64(mi.PaperMFSize), "paper-switches")
	})
}

// --- Figures ------------------------------------------------------------

// BenchmarkFig1 synthesizes the running example f = abcd + a'b'c'd'
// (Fig. 1(d): minimum 4×2).
func BenchmarkFig1(b *testing.B) {
	f := NewCover(4,
		Product([]int{0, 1, 2, 3}, nil),
		Product(nil, []int{0, 1, 2, 3}))
	var size int
	for i := 0; i < b.N; i++ {
		r, err := Synthesize(f, Options{})
		if err != nil {
			b.Fatal(err)
		}
		size = r.Size
	}
	b.ReportMetric(float64(size), "switches")
}

// BenchmarkFig4Bounds runs every bound construction on the Fig. 4
// function (DP 6x4, PS 3x7, DPS 11x4, IPS 3x5, IDPS 8x4).
func BenchmarkFig4Bounds(b *testing.B) {
	f := NewCover(5,
		Product([]int{2, 3}, nil),
		Product(nil, []int{2, 3}),
		Product([]int{0, 1, 4}, nil),
		Product(nil, []int{0, 1, 4}))
	isop, dual := minimize.AutoDual(f)
	for i := 0; i < b.N; i++ {
		bs := bounds.All(isop, dual, true)
		if i == b.N-1 {
			for _, bd := range bs {
				b.ReportMetric(float64(bd.Size()), bd.Name+"-switches")
			}
		}
	}
}

// BenchmarkFig2POS measures the gate-level CNF construction of Fig. 2 via
// a full LM encode+solve on the 3×3 lattice for a shared-literal target.
func BenchmarkFig2POS(b *testing.B) {
	f := NewCover(4,
		Product([]int{1, 2, 3}, []int{0}),
		Product([]int{0, 2, 3}, []int{1}))
	isop, dual := minimize.AutoDual(f)
	for i := 0; i < b.N; i++ {
		r, err := encode.SolveLM(isop, dual, lattice.Grid{M: 3, N: 3}, encode.Options{})
		if err != nil || r.Status != sat.Sat {
			b.Fatalf("unexpected: %v %v", r.Status, err)
		}
	}
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationEncoding compares the LM formulation variants on a
// fixed feasible instance: primal vs dual choice, connectivity facts
// on/off, degree constraints on/off.
func BenchmarkAblationEncoding(b *testing.B) {
	f, _ := benchdata.Lookup("dc1_02").Function()
	isop, dual := minimize.AutoDual(f)
	g := lattice.Grid{M: 4, N: 3}
	variants := []struct {
		name string
		opt  encode.Options
	}{
		{"auto", encode.Options{}},
		{"primal", encode.Options{Mode: encode.PrimalOnly}},
		{"dual", encode.Options{Mode: encode.DualOnly}},
		{"no-facts", encode.Options{DisableFacts: true}},
		{"no-degree", encode.Options{DisableDegree: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var conflicts int64
			for i := 0; i < b.N; i++ {
				r, err := encode.SolveLM(isop, dual, g, v.opt)
				if err != nil {
					b.Fatal(err)
				}
				conflicts = r.SolverStat.Conflicts
				_ = r
			}
			b.ReportMetric(float64(conflicts), "conflicts")
		})
	}
}

// BenchmarkAblationEngine compares the monolithic LM encoding with the
// CEGAR engine (on a pool of its own, holding the one grid) on a
// feasible and an infeasible lattice: CEGAR
// materializes only the truth-table entries it needs (wins on SAT
// instances with many inputs) but must refine to completion for UNSAT
// proofs where the monolithic encoding shines.
func BenchmarkAblationEngine(b *testing.B) {
	f, _ := benchdata.Lookup("dc1_02").Function()
	isop, dual := minimize.AutoDual(f)
	cases := []struct {
		name string
		g    lattice.Grid
	}{
		{"sat-4x3", lattice.Grid{M: 4, N: 3}},
		{"unsat-3x3", lattice.Grid{M: 3, N: 3}},
	}
	for _, c := range cases {
		for _, e := range []struct {
			name  string
			solve func(target, targetDual cube.Cover, g lattice.Grid, opt encode.Options) (encode.Result, error)
		}{
			{"monolithic", encode.SolveLM},
			{"cegar", encode.SolveLMCegar},
		} {
			b.Run(c.name+"/"+e.name, func(b *testing.B) {
				var vars int
				for i := 0; i < b.N; i++ {
					r, err := e.solve(isop, dual, c.g, encode.Options{})
					if err != nil {
						b.Fatal(err)
					}
					vars = r.Vars
				}
				b.ReportMetric(float64(vars), "vars")
			})
		}
	}
}

// BenchmarkCegarEngine measures the incremental CEGAR engine on
// multi-counterexample instances and reports its headline counters: the
// refinement count, the clause volume actually handed to the persistent
// solver, and the volume a rebuild-per-iteration loop would have pushed.
// The added-vs-rebuilt gap (and the wall time, vs the seed engine) is the
// win of keeping one solver alive across refinements.
func BenchmarkCegarEngine(b *testing.B) {
	cases := []struct {
		inst string
		g    lattice.Grid
	}{
		{"dc1_02", lattice.Grid{M: 4, N: 3}},
		{"b12_03", lattice.Grid{M: 4, N: 4}},
		{"mp2d_06", lattice.Grid{M: 5, N: 4}},
	}
	for _, c := range cases {
		f, _ := benchdata.Lookup(c.inst).Function()
		isop, dual := minimize.AutoDual(f)
		b.Run(fmt.Sprintf("%s-%s", c.inst, c.g), func(b *testing.B) {
			var r encode.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = encode.SolveLMCegar(isop, dual, c.g, encode.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			if r.Status != sat.Sat {
				b.Fatalf("status = %v", r.Status)
			}
			b.ReportMetric(float64(r.CegarIters), "iters")
			b.ReportMetric(float64(r.AddedClauses), "clauses-added")
			b.ReportMetric(float64(r.RebuiltClauses), "clauses-rebuilt")
			// Solver effort of the last solve (lifetime of its persistent
			// solver), so BENCH_janus.json tracks search-pressure drift.
			b.ReportMetric(float64(r.SolverStat.Conflicts), "conflicts")
			b.ReportMetric(float64(r.SolverStat.Propagations), "propagations")
		})
	}
}

// BenchmarkSharedSearch times the whole dichotomic search, which runs
// every LM solve on one shared assumption pool per synthesis, and reports
// the pool's counters: clauses added, skeleton reuses, counterexample
// clauses transferred between candidates, and the clause-quality
// filter's work. These rows feed the search block of BENCH_janus.json
// and its perfgate rule.
//
// Every iteration starts from cleared memo caches: the process-wide
// path/table/cover caches would otherwise let iteration order decide
// how much enumeration work each run pays, and the instances are chosen
// so the dichotomic search actually runs (dc1_02 and b12_03, measured
// here before, have lb == nub — their searches decide zero LM problems
// and every solver metric reads zero).
func BenchmarkSharedSearch(b *testing.B) {
	for _, name := range []string{"dc1_00", "dc1_03", "mp2d_06", "misex1_04"} {
		f, _ := benchdata.Lookup(name).Function()
		b.Run(name, func(b *testing.B) {
			var r core.Result
			var opt core.Options
			opt.Encode.Limits = benchLimits()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				memo.Reset()
				b.StartTimer()
				var err error
				r, err = core.Synthesize(f, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			if r.LB == r.NUB {
				b.Fatalf("%s: no dichotomic step ran; pick an instance with lb < nub", name)
			}
			b.ReportMetric(float64(r.Size), "switches")
			b.ReportMetric(float64(r.ClausesAdded), "clauses-added")
			b.ReportMetric(float64(r.SharedReused), "solver-reuses")
			b.ReportMetric(float64(r.TransferredCEX), "cex-transferred")
			b.ReportMetric(float64(r.CEXFiltered), "cex-filtered")
			b.ReportMetric(float64(r.LearntsPruned), "learnts-pruned")
		})
	}
}

// BenchmarkAblationBounds compares the dichotomic search with and without
// the improved initial bounds (the paper's oub-vs-nub ablation).
func BenchmarkAblationBounds(b *testing.B) {
	f, _ := benchdata.Lookup("dc1_03").Function()
	for _, improved := range []bool{false, true} {
		name := "oub-only"
		if improved {
			name = "with-nub"
		}
		b.Run(name, func(b *testing.B) {
			var lm int
			opt := core.Options{DisableImprovedBounds: !improved, DisableDS: !improved}
			opt.Encode.Limits = benchLimits()
			for i := 0; i < b.N; i++ {
				r, err := core.Synthesize(f, opt)
				if err != nil {
					b.Fatal(err)
				}
				lm = r.LMSolved
			}
			b.ReportMetric(float64(lm), "LM-problems")
		})
	}
}

// --- Substrates ---------------------------------------------------------

// BenchmarkSATSolver exercises the CDCL core on pigeonhole instances.
func BenchmarkSATSolver(b *testing.B) {
	for _, holes := range []int{6, 7, 8} {
		b.Run(fmt.Sprintf("php-%d", holes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sat.New((holes + 1) * holes)
				v := func(p, h int) int { return p*holes + h }
				for p := 0; p <= holes; p++ {
					lits := make([]sat.Lit, holes)
					for h := 0; h < holes; h++ {
						lits[h] = sat.MkLit(v(p, h), false)
					}
					s.AddClause(lits...)
				}
				for h := 0; h < holes; h++ {
					for p1 := 0; p1 <= holes; p1++ {
						for p2 := p1 + 1; p2 <= holes; p2++ {
							s.AddClause(sat.MkLit(v(p1, h), true), sat.MkLit(v(p2, h), true))
						}
					}
				}
				if st := s.Solve(sat.Limits{}); st != sat.Unsat {
					b.Fatalf("PHP must be UNSAT, got %v", st)
				}
			}
		})
	}
}

// BenchmarkMinimizer measures the espresso-style loop on the benchmark
// generator's functions.
func BenchmarkMinimizer(b *testing.B) {
	f, _ := benchdata.Lookup("ex5_17").Function()
	for i := 0; i < b.N; i++ {
		g := minimize.ISOP(f)
		if g.IsZero() {
			b.Fatal("bad minimization")
		}
	}
}

// BenchmarkPathEnumeration measures the chordless-path DFS that underlies
// every lattice function computation.
func BenchmarkPathEnumeration(b *testing.B) {
	g := lattice.Grid{M: 5, N: 5}
	for i := 0; i < b.N; i++ {
		if got := g.CountPaths(); got != 205 {
			b.Fatalf("count = %d", got)
		}
	}
}

func parseSize(sol string) int {
	var m, n int
	if _, err := fmt.Sscanf(sol, "%dx%d", &m, &n); err != nil {
		return 0
	}
	return m * n
}
