package encode_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/encode"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/sat"
)

// TestOverlapMatchesSequential runs the search goldens' instances plus
// ex5_22 and misex1_06 through core.Synthesize and core.SynthesizeMulti at
// 1,000 conflicts per LM call, with every step's attempts allowed to run
// ahead at once (SolveFirst with no delay). At GOMAXPROCS 1 the CPU gate
// keeps every step sequential; at GOMAXPROCS 2 copies start, and at least
// one attempt of a later grid than the earliest unsettled attempt's must
// be adopted and one discarded. Both runs must report the same
// assignments, GridsProbed and Result counters, and the same committed
// registry deltas (every janus_core, janus_encode and janus_sat counter
// and histogram but timings and the speculation counters). The GOMAXPROCS
// 2 run is traced: its speculative Candidate spans carry
// speculative=adopted|discarded and ahead, and the trace validates.
func TestOverlapMatchesSequential(t *testing.T) {
	defer encode.SetOverlapDelay(0)()
	names := []string{"mp2d_06", "dc1_03", "misex1_04", "ex5_06", "ex5_22", "misex1_06", "bw"}
	type run struct {
		results            map[string]string
		deltas             map[string]string
		adopted, discarded int64
		undecided          int
		trace              []obsv.Record
	}
	adopted := obsv.Default.Counter("janus_encode_speculations_adopted_total")
	discarded := obsv.Default.Counter("janus_encode_speculations_discarded_total")
	do := func(procs int, traced bool) run {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var buf bytes.Buffer
		var tracer *obsv.Tracer
		if traced {
			tracer = obsv.NewTracer(&buf)
		}
		r := run{results: map[string]string{}, deltas: map[string]string{}}
		for _, name := range names {
			var opt core.Options
			opt.Encode.Limits = sat.Limits{MaxConflicts: 1000}
			opt.Tracer = tracer
			a0, d0 := adopted.Value(), discarded.Value()
			before := obsv.Default.Snapshot()
			if mi := benchdata.LookupMulti(name); mi != nil {
				mr, err := core.SynthesizeMulti(mi.Outputs(), opt, true)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				parts := make([]string, len(mr.Parts))
				for i, p := range mr.Parts {
					parts[i] = summary(p)
				}
				r.results[name] = fmt.Sprintf("%v %v lm=%d added=%d rebuilt=%d iters=%d reused=%d transferred=%d filtered=%d pruned=%d parts=%v",
					mr.Lattice.Assignment.Grid, mr.Lattice.Assignment.Entries, mr.LMSolved, mr.ClausesAdded,
					mr.ClausesRebuilt, mr.CegarIters, mr.SharedReused, mr.TransferredCEX, mr.CEXFiltered,
					mr.LearntsPruned, parts)
			} else {
				f, ok := benchdata.Lookup(name).Function()
				if !ok {
					t.Fatalf("%s: generator missed its profile", name)
				}
				res, err := core.Synthesize(f, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				r.results[name] = summary(res)
				r.undecided += res.UndecidedSteps
			}
			r.deltas[name] = committedDelta(before, obsv.Default.Snapshot())
			r.adopted += adopted.Value() - a0
			r.discarded += discarded.Value() - d0
		}
		if traced {
			recs, err := obsv.ReadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := obsv.ValidateRecords(recs); err != nil {
				t.Fatal(err)
			}
			r.trace = recs
		}
		return r
	}
	seq := do(1, false)
	par := do(2, true)
	t.Logf("GOMAXPROCS 2: %d copies adopted, %d discarded", par.adopted, par.discarded)
	if seq.adopted != 0 || seq.discarded != 0 {
		t.Errorf("GOMAXPROCS 1 overlapped: %d adopted, %d discarded", seq.adopted, seq.discarded)
	}
	if par.adopted == 0 || par.discarded == 0 {
		t.Errorf("GOMAXPROCS 2 with no delay: %d adopted, %d discarded; want both", par.adopted, par.discarded)
	}
	if seq.undecided == 0 || seq.undecided != par.undecided {
		t.Errorf("undecided steps: %d sequential, %d overlapped; want equal and some", seq.undecided, par.undecided)
	}
	for _, name := range names {
		if seq.results[name] != par.results[name] {
			t.Errorf("%s: results differ\nsequential %s\noverlapped %s", name, seq.results[name], par.results[name])
		}
		if seq.deltas[name] != par.deltas[name] {
			t.Errorf("%s: committed counters differ\nsequential %s\noverlapped %s", name, seq.deltas[name], par.deltas[name])
		}
	}
	spec := map[any]int64{}
	ahead := map[any]int64{}
	for _, rec := range par.trace {
		if v, ok := rec.Attrs["speculative"]; ok && rec.Span == "Candidate" {
			spec[v]++
			if n, _ := rec.Attrs["ahead"].(float64); n > 0 {
				ahead[v]++
			}
		}
	}
	if spec["adopted"] != par.adopted || spec["discarded"] != par.discarded || len(spec) != 2 {
		t.Errorf("speculative Candidate spans %v, counters adopted %d discarded %d", spec, par.adopted, par.discarded)
	}
	t.Logf("GOMAXPROCS 2: of a later grid than the head's, %d adopted, %d discarded", ahead["adopted"], ahead["discarded"])
	if ahead["adopted"] == 0 || ahead["discarded"] == 0 {
		t.Errorf("attempts run ahead of the head's grid: %v; want some adopted and some discarded", ahead)
	}
}

// summary renders every field of a Result the search decides, leaving out
// the wall-clock ones.
func summary(r core.Result) string {
	return fmt.Sprintf("%v %v size=%d lb=%d oub=%d nub=%d ub=%s final_lb=%d proven_lb=%d undecided=%d partial=%v lm=%d added=%d rebuilt=%d iters=%d reused=%d transferred=%d filtered=%d pruned=%d grids=%v",
		r.Grid, r.Assignment.Entries, r.Size, r.LB, r.OUB, r.NUB, r.UBMethod, r.FinalLB, r.ProvenLB, r.UndecidedSteps, r.Partial,
		r.LMSolved, r.ClausesAdded, r.ClausesRebuilt, r.CegarIters, r.SharedReused,
		r.TransferredCEX, r.CEXFiltered, r.LearntsPruned, r.GridsProbed)
}

// committedDelta renders the change between two registry snapshots in the
// counters, gauges and histograms of the core, encode and sat layers,
// without timings and the speculation counters.
func committedDelta(before, after obsv.Snapshot) string {
	keep := func(name string) bool {
		return (strings.HasPrefix(name, "janus_core_") || strings.HasPrefix(name, "janus_encode_") ||
			strings.HasPrefix(name, "janus_sat_")) &&
			!strings.HasSuffix(name, "_ns_total") && !strings.Contains(name, "speculation")
	}
	var lines []string
	for name, v := range after.Counters {
		if keep(name) {
			lines = append(lines, fmt.Sprintf("%s=%d", name, v-before.Counters[name]))
		}
	}
	for name, v := range after.Gauges {
		if keep(name) && strings.HasPrefix(name, "janus_sat_") {
			lines = append(lines, fmt.Sprintf("%s=%d", name, v))
		}
	}
	for name, h := range after.Histograms {
		if !keep(name) || strings.HasPrefix(name, "janus_core_") {
			continue
		}
		b := before.Histograms[name]
		buckets := make([]int64, len(h.Buckets))
		for i := range h.Buckets {
			buckets[i] = h.Buckets[i]
			if i < len(b.Buckets) {
				buckets[i] -= b.Buckets[i]
			}
		}
		lines = append(lines, fmt.Sprintf("%s=%d/%d/%v", name, h.Count-b.Count, h.Sum-b.Sum, buckets))
	}
	sort.Strings(lines)
	return strings.Join(lines, " ")
}

// TestSolveFirstMatchesOneByOne decides misex1_06's midpoint-18 grids and
// a few smaller ones with SolveFirst, every attempt allowed to run ahead
// at once, and one grid at a time with SolveLMCegar up to the first Sat,
// each on a fresh pool at 1,000 conflicts per attempt: the Results must
// agree grid by grid. A search expired from the start decides nothing.
func TestSolveFirstMatchesOneByOne(t *testing.T) {
	defer encode.SetOverlapDelay(0)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f, ok := benchdata.Lookup("misex1_06").Function()
	if !ok {
		t.Fatal("misex1_06: generator missed its profile")
	}
	isop, dual := minimize.AutoDual(f)
	grids := []lattice.Grid{{M: 4, N: 4}, {M: 5, N: 3}, {M: 6, N: 3}, {M: 3, N: 6}, {M: 4, N: 5}, {M: 2, N: 2}}
	render := func(r encode.Result) string {
		return fmt.Sprintf("%v dual=%v structural=%v %v iters=%d added=%d transferred=%d pruned=%d",
			r.Status, r.UsedDual, r.Structural, r.Assignment, r.CegarIters, r.AddedClauses,
			r.TransferredCEXClauses, r.PrunedLearnts)
	}
	opt := encode.Options{Limits: sat.Limits{MaxConflicts: 1000}}

	opt.Shared = encode.NewSharedPool()
	var want []string
	for _, g := range grids {
		r, err := encode.SolveLMCegar(isop, dual, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, render(r))
		if r.Status == sat.Sat {
			break
		}
	}
	opt.Shared.Release()

	opt.Shared = encode.NewSharedPool()
	rs, err := encode.SolveFirst(isop, dual, grids, opt, nil)
	opt.Shared.Release()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(want) {
		t.Fatalf("SolveFirst decided %d grids, one by one %d", len(rs), len(want))
	}
	for i, r := range rs {
		if got := render(r); got != want[i] {
			t.Errorf("%v: SolveFirst %s\none by one %s", grids[i], got, want[i])
		}
	}

	before := obsv.Default.Counter("janus_encode_candidates_total").Value()
	opt.Shared = encode.NewSharedPool()
	rs, err = encode.SolveFirst(isop, dual, grids, opt, func() bool { return true })
	opt.Shared.Release()
	if n := obsv.Default.Counter("janus_encode_candidates_total").Value() - before; err != nil || len(rs) != 0 || n != 0 {
		t.Fatalf("expired from the start: %d Results and %d attempts, err %v; want none", len(rs), n, err)
	}
}
