package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/lattice-tools/janus/internal/cube"
)

// randomRawCover draws a random cover over n inputs with up to k cubes
// (contradictory draws are skipped, so the cover may come out smaller).
func randomRawCover(rng *rand.Rand, n, k int) cube.Cover {
	raw := cube.Zero(n)
	for i := 0; i < k; i++ {
		var c cube.Cube
		for v := 0; v < n; v++ {
			switch rng.Intn(3) {
			case 0:
				c = c.WithPos(v)
			case 1:
				c = c.WithNeg(v)
			}
		}
		if c.NumLiterals() > 0 {
			raw.Cubes = append(raw.Cubes, c)
		}
	}
	return raw
}

// TestSharedSearchWorkers runs whole syntheses as concurrent workers,
// each on its own pool, beside a sequential run of the same cover: the
// engines must never cross streams, which under -race is the regression
// test for the pools and the process-wide overlap gate. Without a SAT
// budget every answer must match the sequential run.
func TestSharedSearchWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		raw := randomRawCover(rng, 4, 3)
		if len(raw.Cubes) == 0 {
			continue
		}
		seq, err := Synthesize(raw, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var errs [2]error
		var par [2]Result
		for i := range par {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				par[i], errs[i] = Synthesize(raw, Options{})
			}(i)
		}
		wg.Wait()
		for i := range par {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if par[i].Size != seq.Size {
				t.Fatalf("trial %d: sequential %d vs concurrent %d", trial, seq.Size, par[i].Size)
			}
			if par[i].Assignment == nil || !par[i].Assignment.Realizes(par[i].ISOP) {
				t.Fatalf("trial %d: concurrent answer unverified", trial)
			}
		}
	}
}

// TestSharedCountersThreaded: the pool's counters must climb all the way
// into core.Result — reuse requires a search that revisits a shape,
// which the dichotomic descent over a multi-product function does.
func TestSharedCountersThreaded(t *testing.T) {
	f := cube.NewCover(4,
		cube.FromLiterals([]int{0, 1, 2, 3}, nil),
		cube.FromLiterals(nil, []int{0, 1, 2, 3}))
	r, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 8 {
		t.Fatalf("fig1 size = %d, want 8", r.Size)
	}
	if r.ClausesAdded == 0 || r.CegarIters == 0 {
		t.Fatalf("no pool effort recorded: %+v", r)
	}
	if r.ClausesRebuilt < r.ClausesAdded {
		t.Fatalf("incremental volume %d exceeds the rebuild volume %d",
			r.ClausesAdded, r.ClausesRebuilt)
	}
}
