package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
)

func doneOutcome(size int) *outcome {
	return &outcome{Status: StatusDone, Result: &ResultJSON{M: size, N: 1, Size: size}}
}

func TestMemCacheLRU(t *testing.T) {
	c := newMemCache(2)
	c.put("a", doneOutcome(1))
	c.put("b", doneOutcome(2))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.put("c", doneOutcome(3)) // evicts b (a was touched)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a lost")
	}
	if out, ok := c.get("c"); !ok || out.Result.Size != 3 {
		t.Fatal("c lost")
	}
}

func TestDiskCacheRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c, err := openDiskCache(dir, 16, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.put("k1", doneOutcome(8))
	out, ok := c.get("k1")
	if !ok || out.Result.Size != 8 {
		t.Fatalf("roundtrip: ok=%v out=%+v", ok, out)
	}
	// Non-done outcomes are never persisted.
	c.put("k2", &outcome{Status: StatusCanceled})
	if _, ok := c.get("k2"); ok {
		t.Fatal("canceled outcome persisted")
	}

	// A second open (a "restart") sees the entry.
	c2, err := openDiskCache(dir, 16, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := c2.get("k1"); !ok || out.Result.Size != 8 {
		t.Fatal("entry lost across reopen")
	}
	// No temp files left behind by the atomic writer.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp file %q left behind", e.Name())
		}
	}
}

// TestDiskCacheCorruptRecovery: a torn or hand-edited entry is detected,
// counted, deleted, and treated as a miss — and the slot is reusable.
func TestDiskCacheCorruptRecovery(t *testing.T) {
	dir := t.TempDir()
	c, err := openDiskCache(dir, 16, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.put("k1", doneOutcome(8))
	if err := os.WriteFile(filepath.Join(dir, "k1.json"), []byte(`{"status":"done","res`), 0o644); err != nil {
		t.Fatal(err)
	}
	before := mDiskCorrupt.Value()
	if _, ok := c.get("k1"); ok {
		t.Fatal("corrupt entry served")
	}
	if mDiskCorrupt.Value() != before+1 {
		t.Fatal("corruption not counted")
	}
	if _, err := os.Stat(filepath.Join(dir, "k1.json")); !os.IsNotExist(err) {
		t.Fatalf("corrupt file not removed: %v", err)
	}
	// Same key works again after the bad entry is purged.
	c.put("k1", doneOutcome(9))
	if out, ok := c.get("k1"); !ok || out.Result.Size != 9 {
		t.Fatal("slot unusable after corruption recovery")
	}
}

// TestDiskCacheEntryBound: the entry budget evicts the least recently
// used files, both on write and when reopening an over-full directory.
func TestDiskCacheEntryBound(t *testing.T) {
	dir := t.TempDir()
	c, err := openDiskCache(dir, 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.put("k1", doneOutcome(1))
	c.put("k2", doneOutcome(2))
	c.get("k1") // touch: k2 is now LRU
	c.put("k3", doneOutcome(3))
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get("k2"); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, err := os.Stat(filepath.Join(dir, "k2.json")); !os.IsNotExist(err) {
		t.Fatal("evicted entry's file not deleted")
	}

	// Reopen with a tighter bound: the open prunes down to budget.
	c2, err := openDiskCache(dir, 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if c2.len() != 1 {
		t.Fatalf("reopened len = %d, want 1", c2.len())
	}
}

// TestDiskCacheByteBound: the byte budget holds even when the entry
// budget has room.
func TestDiskCacheByteBound(t *testing.T) {
	dir := t.TempDir()
	one, err := openDiskCache(dir, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every real entry exceeds one byte, so each put evicts its
	// predecessor; only the newest survives.
	one.put("k1", doneOutcome(1))
	time.Sleep(2 * time.Millisecond) // distinct mtimes for the reopen order
	one.put("k2", doneOutcome(2))
	if one.len() != 1 {
		t.Fatalf("len = %d, want 1 under a 1-byte budget", one.len())
	}
	if _, ok := one.get("k2"); !ok {
		t.Fatal("newest entry must survive the byte budget")
	}
}

// budgetTestServer is a server whose synth stub counts calls and
// returns a MatchedLB-controllable answer.
func budgetTestServer(t *testing.T, matchedLB bool) (*Server, *atomic.Int32) {
	t.Helper()
	s := newTestServer(t, Config{Workers: 1})
	var calls atomic.Int32
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		calls.Add(1)
		r := fakeResult()
		r.MatchedLB = matchedLB
		return r, nil
	}
	return s, &calls
}

// TestBudgetReuseMatchedLB is the budget-crossing regression test: an
// answer that matched the lower bound under a small timeout is globally
// optimal, so a later request for the same function with a much larger
// timeout must be a cache hit, not a second synthesis. Before the
// budget index, the exact (function, budget) key made the second
// request a miss.
func TestBudgetReuseMatchedLB(t *testing.T) {
	s, calls := budgetTestServer(t, true)
	first, err := s.Synthesize(context.Background(), Request{PLA: fig1PLA, TimeoutMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached != "" || !first.Result.MatchedLB {
		t.Fatalf("seed request: cached=%q matchedLB=%v", first.Cached, first.Result.MatchedLB)
	}
	before := mBudgetHits.Value()
	second, err := s.Synthesize(context.Background(), Request{PLA: fig1PLA, TimeoutMS: 60 * 60 * 1000})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached != "mem" {
		t.Fatalf("large-timeout request not served from cache: cached=%q", second.Cached)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d syntheses, want 1 (budget reuse failed)", got)
	}
	if mBudgetHits.Value() != before+1 {
		t.Fatal("budget hit not counted")
	}
}

// TestBudgetReuseDominatingStored: an answer computed under a larger
// budget is at least as good as anything a smaller budget could find,
// MatchedLB or not.
func TestBudgetReuseDominatingStored(t *testing.T) {
	s, calls := budgetTestServer(t, false)
	if _, err := s.Synthesize(context.Background(), Request{PLA: fig1PLA, TimeoutMS: 60 * 60 * 1000}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Synthesize(context.Background(), Request{PLA: fig1PLA, TimeoutMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached != "mem" || calls.Load() != 1 {
		t.Fatalf("smaller-budget request not served from the dominating answer: cached=%q calls=%d",
			resp.Cached, calls.Load())
	}
}

// TestBudgetNoUnsoundReuse: a non-optimal answer from a smaller budget
// must NOT satisfy a larger-budget request — more budget might find a
// smaller lattice.
func TestBudgetNoUnsoundReuse(t *testing.T) {
	s, calls := budgetTestServer(t, false)
	if _, err := s.Synthesize(context.Background(), Request{PLA: fig1PLA, TimeoutMS: 1000}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Synthesize(context.Background(), Request{PLA: fig1PLA, TimeoutMS: 60 * 60 * 1000})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached != "" || calls.Load() != 2 {
		t.Fatalf("under-budget non-optimal answer reused unsoundly: cached=%q calls=%d",
			resp.Cached, calls.Load())
	}
	// MaxConflicts crossings behave the same way: a bounded-conflicts
	// answer must not serve an unlimited request, but the reverse reuse
	// holds (0 = unlimited dominates every bound). Fresh server so the
	// timeout-crossing answers above cannot dominate these requests.
	s, calls = budgetTestServer(t, false)
	if _, err := s.Synthesize(context.Background(), Request{PLA: fig1PLA, MaxConflicts: 100}); err != nil {
		t.Fatal(err)
	}
	resp, err = s.Synthesize(context.Background(), Request{PLA: fig1PLA})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached != "" || calls.Load() != 2 {
		t.Fatalf("bounded-conflicts answer served an unlimited request: cached=%q calls=%d",
			resp.Cached, calls.Load())
	}
	resp, err = s.Synthesize(context.Background(), Request{PLA: fig1PLA, MaxConflicts: 100})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached != "mem" || calls.Load() != 2 {
		t.Fatalf("unlimited answer must serve a bounded request: cached=%q calls=%d",
			resp.Cached, calls.Load())
	}
}

// TestDuplicateCubeKey: a PLA that repeats a cube denotes the same
// function, so both spellings must share the canonical key and hit the
// same cache slot. Before dedup, the repeated cube hashed into the key
// and the redundant spelling missed the cache and dodged coalescing.
func TestDuplicateCubeKey(t *testing.T) {
	dup := ".i 4\n.o 1\n1111 1\n0000 1\n1111 1\n.e\n"
	a, err := parseRequest(Request{PLA: fig1PLA})
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseRequest(Request{PLA: dup})
	if err != nil {
		t.Fatal(err)
	}
	if a.fnKey != b.fnKey || a.key != b.key {
		t.Fatal("repeated cube must not change the canonical key")
	}

	s, calls := budgetTestServer(t, false)
	if _, err := s.Synthesize(context.Background(), Request{PLA: fig1PLA}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Synthesize(context.Background(), Request{PLA: dup})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached != "mem" || calls.Load() != 1 {
		t.Fatalf("redundant spelling missed the cache: cached=%q calls=%d", resp.Cached, calls.Load())
	}
}

// TestFnKeyInputNames: a cached lattice is spelled in its request's
// input names, so the same cubes under other .ilb names are another
// question. The p q request must be solved and answered in p and q, not
// served a b's lattice from memory; a repeat of the a b request hits.
func TestFnKeyInputNames(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ask := func(names string) *Response {
		t.Helper()
		resp, err := s.Synthesize(context.Background(),
			Request{PLA: ".i 2\n.o 1\n.ilb " + names + "\n11 1\n.e\n"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusDone || resp.Result == nil {
			t.Fatalf(".ilb %s: %+v", names, resp)
		}
		return resp
	}
	lattice := func(r *Response) string { return fmt.Sprint(r.Result.Lattice) }
	if r := ask("a b"); lattice(r) != "[[a] [b]]" || r.Cached != "" {
		t.Fatalf(".ilb a b: lattice %s cached %q, want a fresh [[a] [b]]", lattice(r), r.Cached)
	}
	if r := ask("p q"); lattice(r) != "[[p] [q]]" || r.Cached != "" {
		t.Fatalf(".ilb p q: lattice %s cached %q, want a fresh [[p] [q]]", lattice(r), r.Cached)
	}
	if r := ask("a b"); lattice(r) != "[[a] [b]]" || r.Cached != "mem" {
		t.Fatalf("repeated .ilb a b: lattice %s cached %q, want a memory hit", lattice(r), r.Cached)
	}
}
