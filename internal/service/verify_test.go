package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
)

// TestDiskEntryVerifiedBeforeServing: a done disk entry whose lattice does
// not realize the requested function (a stale entry, a bit flip) is
// dropped and counted, and the request is solved afresh, not answered
// from disk. The fresh answer replaces the entry.
func TestDiskEntryVerifiedBeforeServing(t *testing.T) {
	dir := t.TempDir()
	var synths atomic.Int32
	s := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		synths.Add(1)
		return fakeResult(), nil
	}
	p, err := parseRequest(fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	// A 4x2 lattice of the right shape computing abcd alone.
	bad := fakeResult()
	for v := 0; v < 4; v++ {
		bad.Assignment.Entries[2*v+1].Kind = 0 // Const0 in the complement column
	}
	s.disk.put(p.key, &outcome{Status: StatusDone, Result: renderResult(bad, p.names)})

	before := mVerifyFailures.Value()
	resp, err := s.Synthesize(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusDone || resp.Cached != "" || synths.Load() != 1 {
		t.Fatalf("status %s cached %q after %d syntheses; want a fresh answer", resp.Status, resp.Cached, synths.Load())
	}
	if got := mVerifyFailures.Value() - before; got != 1 {
		t.Fatalf("verify failures counted %d, want 1", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "results", p.key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var out outcome
	if err := json.Unmarshal(data, &out); err != nil || !p.realizes(&out) {
		t.Fatalf("disk entry after the re-solve does not realize the function (err %v)", err)
	}
}

// TestLyingPeerNotAdopted: a peer whose cache answers with a lattice that
// does not realize the function is refused and counted; the request is
// solved locally and nothing of the peer's answer enters either tier.
func TestLyingPeerNotAdopted(t *testing.T) {
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fnKey := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
		res := fakeResult()
		res.Assignment.Entries[0].Kind = 0 // cuts the abcd column
		json.NewEncoder(w).Encode(CacheEntry{
			FnKey: fnKey, Key: strings.Repeat("ab", 32), MatchedLB: true,
			Status: StatusDone, Result: renderResult(res, nil),
		})
	}))
	defer liar.Close()
	s, _, calls := peerTestServer(t, true)
	s.SetPeers(liar.URL)

	before := mVerifyFailures.Value()
	out, err := s.Synthesize(ContextWithFillFrom(context.Background(), liar.URL),
		Request{PLA: fig1PLA, TimeoutMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusDone || out.Cached != "" || calls.Load() != 1 {
		t.Fatalf("status %s cached %q after %d syntheses; want a fresh local answer", out.Status, out.Cached, calls.Load())
	}
	if got := mVerifyFailures.Value() - before; got != 1 {
		t.Fatalf("verify failures counted %d, want 1", got)
	}
	if _, _, ok := s.cached(strings.Repeat("ab", 32), nil); ok {
		t.Fatal("the lying peer's entry was adopted")
	}
}

// TestBatchDiskEntryVerified: a done batch entry on disk whose first part
// does not realize the first function is dropped and counted, and the
// batch is solved afresh, not answered from disk. The fresh answer
// replaces the entry, and a restarted daemon serves it from disk.
func TestBatchDiskEntryVerified(t *testing.T) {
	dir := t.TempDir()
	var solves atomic.Int32
	fake := func(fns []cube.Cover, opt core.Options, reduce bool) (*core.MultiResult, error) {
		solves.Add(1)
		return fakeMultiResult(len(fns)), nil
	}
	s := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	s.synthMulti = fake
	req := BatchRequest{Functions: []BatchFunction{{PLA: fig1PLA}, {PLA: fig1PLA}}}
	pb, err := parseBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	bad := fakeMultiResult(2)
	bad.Parts[0].Assignment.Entries[0].Kind = 0 // cuts the abcd column
	s.disk.put(pb.key, &outcome{Status: StatusDone, Batch: renderBatch(bad, pb)})

	before := mVerifyFailures.Value()
	resp, err := s.SynthesizeBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusDone || resp.Cached != "" || solves.Load() != 1 {
		t.Fatalf("status %s cached %q after %d solves; want a fresh answer", resp.Status, resp.Cached, solves.Load())
	}
	if got := mVerifyFailures.Value() - before; got != 1 {
		t.Fatalf("verify failures counted %d, want 1", got)
	}

	warm := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	warm.synthMulti = fake
	resp, err = warm.SynthesizeBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached != "disk" || solves.Load() != 1 {
		t.Fatalf("the re-solved entry: cached %q after %d solves, want a disk hit", resp.Cached, solves.Load())
	}
}
