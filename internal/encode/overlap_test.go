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
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/sat"
)

// TestOverlapMatchesSequential runs the search goldens' instances plus
// ex5_22 and misex1_06 through core.Synthesize and core.SynthesizeMulti at
// 1,000 conflicts per LM call, with the second orientation allowed to
// start at once beside the first. At GOMAXPROCS 1 the CPU gate keeps every
// call sequential; at GOMAXPROCS 2 copies start, and at least one must be
// adopted and one discarded. Both runs must report the same assignments,
// GridsProbed and Result counters, and the same committed registry deltas
// (every janus_core, janus_encode and janus_sat counter and histogram but
// timings and the overlap's own counters). The GOMAXPROCS 2 run is traced:
// its speculative Candidate spans carry speculative=adopted|discarded and
// the trace validates.
func TestOverlapMatchesSequential(t *testing.T) {
	defer encode.SetOverlapDelay(0)()
	names := []string{"mp2d_06", "dc1_03", "misex1_04", "ex5_06", "ex5_22", "misex1_06", "bw"}
	type run struct {
		results            map[string]string
		deltas             map[string]string
		adopted, discarded int64
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
	for _, name := range names {
		if seq.results[name] != par.results[name] {
			t.Errorf("%s: results differ\nsequential %s\noverlapped %s", name, seq.results[name], par.results[name])
		}
		if seq.deltas[name] != par.deltas[name] {
			t.Errorf("%s: committed counters differ\nsequential %s\noverlapped %s", name, seq.deltas[name], par.deltas[name])
		}
	}
	spec := map[any]int64{}
	for _, rec := range par.trace {
		if v, ok := rec.Attrs["speculative"]; ok && rec.Span == "Candidate" {
			spec[v]++
		}
	}
	if spec["adopted"] != par.adopted || spec["discarded"] != par.discarded || len(spec) != 2 {
		t.Errorf("speculative Candidate spans %v, counters adopted %d discarded %d", spec, par.adopted, par.discarded)
	}
}

// summary renders every field of a Result the search decides, leaving out
// the wall-clock ones.
func summary(r core.Result) string {
	return fmt.Sprintf("%v %v size=%d lb=%d oub=%d nub=%d ub=%s final_lb=%d partial=%v lm=%d added=%d rebuilt=%d iters=%d reused=%d transferred=%d filtered=%d pruned=%d grids=%v",
		r.Grid, r.Assignment.Entries, r.Size, r.LB, r.OUB, r.NUB, r.UBMethod, r.FinalLB, r.Partial,
		r.LMSolved, r.ClausesAdded, r.ClausesRebuilt, r.CegarIters, r.SharedReused,
		r.TransferredCEX, r.CEXFiltered, r.LearntsPruned, r.GridsProbed)
}

// committedDelta renders the change between two registry snapshots in the
// counters, gauges and histograms of the core, encode and sat layers,
// without timings and the overlap's own counters.
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
