package core

import (
	"sync"
	"testing"

	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/memo"
)

// TestSynthesizeConcurrentMemo runs two full Table II syntheses in
// parallel, each itself fanning out over Workers goroutines, so the
// process-wide memo caches see genuinely concurrent access from both
// pipelines. Run under -race this is the regression test for the shared
// path/table/cover caches; in either mode it asserts the caches are
// actually exercised (hits observed) and the incremental counters are
// threaded all the way up to core.Result.
func TestSynthesizeConcurrentMemo(t *testing.T) {
	memo.Reset()
	// Both instances need real LM solves (bounds alone don't close them),
	// so the pool and the shared caches are genuinely exercised.
	names := []string{"misex1_04", "mp2d_06"}
	opt := Options{Workers: 4}

	var wg sync.WaitGroup
	results := make([]Result, len(names))
	errs := make([]error, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			f, ok := benchdata.Lookup(name).Function()
			if !ok {
				return
			}
			results[i], errs[i] = Synthesize(f, opt)
		}(i, name)
	}
	wg.Wait()

	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		r := results[i]
		if r.Assignment == nil {
			t.Fatalf("%s: no solution", name)
		}
		if !r.Assignment.Realizes(r.ISOP) {
			t.Fatalf("%s: unverified solution", name)
		}
		if r.ClausesAdded <= 0 || r.ClausesRebuilt < r.ClausesAdded {
			t.Fatalf("%s: counters not threaded: added=%d rebuilt=%d",
				name, r.ClausesAdded, r.ClausesRebuilt)
		}
	}

	s := memo.Snapshot()
	if s.Hits() == 0 {
		t.Fatalf("concurrent synthesis produced no memo hits: %+v", s)
	}
	if s.PathHits == 0 {
		t.Fatalf("expected shared path-enumeration hits, got %+v", s)
	}
}
