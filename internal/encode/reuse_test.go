package encode_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/encode"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/sat"
)

// TestGoldenSearchOnReusedSolvers runs the search goldens' instances
// (core.TestGoldenPoolSearch) twice each at 1,000 conflicts per LM call.
// Every synthesis hands its pool's solvers back as it returns, so the
// second run of each instance solves on reset solvers the first released.
// Both runs must report the same assignment and Result counters and the
// same committed registry deltas, and the second runs must have taken
// released solvers.
func TestGoldenSearchOnReusedSolvers(t *testing.T) {
	var opt core.Options
	opt.Encode.Limits = sat.Limits{MaxConflicts: 1000}
	reused := int64(0)
	for _, name := range []string{"mp2d_06", "dc1_03", "misex1_04", "ex5_06", "bw"} {
		var runs [2]string
		for i := range runs {
			before, r0 := obsv.Default.Snapshot(), encode.ReusedSolvers()
			if mi := benchdata.LookupMulti(name); mi != nil {
				mr, err := core.SynthesizeMulti(mi.Outputs(), opt, true)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				runs[i] = fmt.Sprintf("%v %v lm=%d added=%d iters=%d", mr.Lattice.Assignment.Grid,
					mr.Lattice.Assignment.Entries, mr.LMSolved, mr.ClausesAdded, mr.CegarIters)
				for _, p := range mr.Parts {
					runs[i] += " " + summary(p)
				}
			} else {
				f, ok := benchdata.Lookup(name).Function()
				if !ok {
					t.Fatalf("%s: generator missed its profile", name)
				}
				r, err := core.Synthesize(f, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				runs[i] = summary(r)
			}
			runs[i] += " " + committedDelta(before, obsv.Default.Snapshot())
			if i == 1 {
				reused += encode.ReusedSolvers() - r0
			}
		}
		if runs[0] != runs[1] {
			t.Errorf("%s: the run on reused solvers differs\nfirst  %s\nreused %s", name, runs[0], runs[1])
		}
	}
	if reused == 0 {
		t.Fatal("no second run took a released solver")
	}
	t.Logf("second runs took %d released solvers", reused)
}

// TestConcurrentSynthesesReuseSolvers runs 24 random 5-input syntheses
// (three 3-literal cubes, the shape of janusd's cache misses in the
// benchmark) one after another, then again from four goroutines at once,
// each in its own order, so that solvers one goroutine's synthesis
// releases are taken by another's. Every concurrent Result must equal its
// sequential one.
func TestConcurrentSynthesesReuseSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	fns := make([]cube.Cover, 24)
	for i := range fns {
		fns[i] = cube.Zero(5)
		for k := 0; k < 3; k++ {
			var c cube.Cube
			for _, v := range rng.Perm(5)[:3] {
				if rng.Intn(2) == 0 {
					c = c.WithPos(v)
				} else {
					c = c.WithNeg(v)
				}
			}
			fns[i].Cubes = append(fns[i].Cubes, c)
		}
	}
	var opt core.Options
	opt.Encode.Limits = sat.Limits{MaxConflicts: 1000}
	want := make([]string, len(fns))
	for i, f := range fns {
		r, err := core.Synthesize(f, opt)
		if err != nil {
			t.Fatalf("function %d: %v", i, err)
		}
		want[i] = summary(r)
	}
	r0 := encode.ReusedSolvers()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			for _, i := range order {
				r, err := core.Synthesize(fns[i], opt)
				if err != nil {
					t.Errorf("function %d: %v", i, err)
					return
				}
				if got := summary(r); got != want[i] {
					t.Errorf("function %d concurrently\n got %s\nwant %s", i, got, want[i])
				}
			}
		}(rng.Perm(len(fns)))
	}
	wg.Wait()
	if encode.ReusedSolvers() == r0 {
		t.Fatal("no concurrent synthesis took a released solver")
	}
}
