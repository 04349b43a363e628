package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
)

// fakeMultiResult is a minimal plausible JANUS-MF outcome for n outputs.
func fakeMultiResult(n int) *core.MultiResult {
	mr := &core.MultiResult{
		Lattice:  &core.MultiLattice{Assignment: lattice.NewAssignment(lattice.Grid{M: 4, N: 3*n - 1})},
		LMSolved: n,
	}
	for i := 0; i < n; i++ {
		mr.Parts = append(mr.Parts, fakeResult())
	}
	return mr
}

// TestSchedulerDRRWeights: with tenants weighted 2:1 and both
// backlogged, the dispatch sequence settles into a 2:1 interleave — the
// DRR invariant the fairness acceptance criterion rests on.
func TestSchedulerDRRWeights(t *testing.T) {
	sc := newScheduler(100, TenantConfig{}, map[string]TenantConfig{
		"heavy": {Weight: 2}, "light": {Weight: 1},
	})
	for i := 0; i < 20; i++ {
		if err := sc.enqueue(&job{tenant: "heavy"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := sc.enqueue(&job{tenant: "light"}); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 12; i++ {
		j := sc.pick()
		if j == nil {
			t.Fatalf("pick %d: nil with backlogged tenants", i)
		}
		counts[j.tenant]++
	}
	if counts["heavy"] != 8 || counts["light"] != 4 {
		t.Fatalf("12 contended dispatches split %v, want heavy=8 light=4", counts)
	}
}

// TestSchedulerInFlightCap: a tenant at its in-flight cap is skipped —
// its queued jobs wait — while other tenants keep dispatching, and a
// completion reopens the slot.
func TestSchedulerInFlightCap(t *testing.T) {
	sc := newScheduler(100, TenantConfig{}, map[string]TenantConfig{
		"capped": {MaxInFlight: 1},
	})
	for i := 0; i < 3; i++ {
		if err := sc.enqueue(&job{tenant: "capped"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.enqueue(&job{tenant: "other"}); err != nil {
		t.Fatal(err)
	}
	if j := sc.pick(); j == nil || j.tenant != "capped" {
		t.Fatalf("first pick = %+v, want capped", j)
	}
	// capped is now at its cap; the next two dispatches must be other,
	// then nothing despite capped's backlog.
	if j := sc.pick(); j == nil || j.tenant != "other" {
		t.Fatalf("second pick should be other, got %+v", j)
	}
	if j := sc.pick(); j != nil {
		t.Fatalf("third pick should stall on the in-flight cap, got %+v", j)
	}
	sc.complete("capped")
	if j := sc.pick(); j == nil || j.tenant != "capped" {
		t.Fatalf("post-completion pick should resume capped, got %+v", j)
	}
}

// TestSchedulerQueueShare: the global bound sheds with ErrBusy exactly
// as the old single queue did; a tenant hitting its own share sheds
// with ErrTenantBusy (which still matches ErrBusy for the HTTP 429
// mapping) while other tenants keep admitting.
func TestSchedulerQueueShare(t *testing.T) {
	sc := newScheduler(4, TenantConfig{}, map[string]TenantConfig{
		"bulk": {QueueShare: 2},
	})
	for i := 0; i < 2; i++ {
		if err := sc.enqueue(&job{tenant: "bulk"}); err != nil {
			t.Fatal(err)
		}
	}
	err := sc.enqueue(&job{tenant: "bulk"})
	if !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("over-share admit = %v, want ErrTenantBusy", err)
	}
	if !errors.Is(err, ErrBusy) {
		t.Fatal("ErrTenantBusy must wrap ErrBusy so the 429 mapping holds")
	}
	// The other tenant still has room up to the global bound…
	for i := 0; i < 2; i++ {
		if err := sc.enqueue(&job{tenant: "inter"}); err != nil {
			t.Fatalf("other tenant admit %d: %v", i, err)
		}
	}
	// …and past it the shed is the plain global ErrBusy.
	err = sc.enqueue(&job{tenant: "inter"})
	if !errors.Is(err, ErrBusy) || errors.Is(err, ErrTenantBusy) {
		t.Fatalf("global-full admit = %v, want plain ErrBusy", err)
	}
}

// TestSchedulerTenantFolding: unseen tenant names past the tracking cap
// fold into the default tenant instead of minting unbounded queues and
// metrics — the X-Janus-Tenant header is client-controlled input.
func TestSchedulerTenantFolding(t *testing.T) {
	sc := newScheduler(1<<20, TenantConfig{}, nil)
	for i := 0; i < maxTrackedTenants+16; i++ {
		j := &job{tenant: fmt.Sprintf("t%d", i)}
		if err := sc.enqueue(j); err != nil {
			t.Fatal(err)
		}
		if i >= maxTrackedTenants-1 && j.tenant != DefaultTenant {
			t.Fatalf("tenant %d not folded: accounted to %q", i, j.tenant)
		}
	}
	if len(sc.tenants) > maxTrackedTenants {
		t.Fatalf("%d tenant queues tracked, cap is %d", len(sc.tenants), maxTrackedTenants)
	}
}

// TestConcurrentTenantAdmission: many clients under distinct tenants
// admit, run, and complete concurrently without racing the scheduler
// (this test carries most of its weight under -race) and without losing
// jobs — every admitted job is eventually completed.
func TestConcurrentTenantAdmission(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 256})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		return fakeResult(), nil
	}
	const tenants, perTenant = 6, 12
	var wg sync.WaitGroup
	var failures atomic.Int32
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			ctx := ContextWithTenant(context.Background(), fmt.Sprintf("tenant%d", tn))
			for i := 0; i < perTenant; i++ {
				// Distinct budgets make distinct jobs, so nothing coalesces
				// away and every tenant really exercises its own queue.
				resp, err := s.Synthesize(ctx, Request{PLA: fig1PLA, MaxConflicts: int64(tn*perTenant + i + 1)})
				if err != nil || resp.Status != StatusDone {
					failures.Add(1)
				}
			}
		}(tn)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d requests failed", n)
	}
	st := s.Stats()
	if st.Scheduler == nil {
		t.Fatal("stats missing the scheduler block")
	}
	var admitted, completed int64
	for _, ts := range st.Scheduler.Tenants {
		admitted += ts.Admitted
		completed += ts.Completed
		if ts.QueueDepth != 0 || ts.InFlight != 0 {
			t.Fatalf("tenant %s not drained: %+v", ts.Name, ts)
		}
	}
	if admitted != completed || admitted == 0 {
		t.Fatalf("admitted %d != completed %d", admitted, completed)
	}
}

// TestBatchCoalesce: two identical concurrent batches run exactly one
// SynthesizeMulti; the joiner is answered from the same job.
func TestBatchCoalesce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	var calls atomic.Int32
	gate := make(chan struct{})
	s.synthMulti = func(fns []cube.Cover, opt core.Options, reduce bool) (*core.MultiResult, error) {
		calls.Add(1)
		<-gate
		return fakeMultiResult(len(fns)), nil
	}
	req := BatchRequest{Functions: []BatchFunction{
		{PLA: fig1PLA}, {PLA: ".i 4\n.o 1\n1100 1\n0011 1\n.e\n"},
	}}
	results := make(chan *Response, 2)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := s.SynthesizeBatch(context.Background(), req)
			results <- resp
			errs <- err
		}()
	}
	// Both submissions must be in flight (one running, one joined)
	// before the gate opens, or they would serialize through the cache.
	deadline := time.After(5 * time.Second)
	for calls.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("synthMulti never called")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(20 * time.Millisecond) // let the second request join
	close(gate)
	coalesced := 0
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		resp := <-results
		if resp.Status != StatusDone || resp.Batch == nil {
			t.Fatalf("batch answer %d: status=%s batch=%v", i, resp.Status, resp.Batch != nil)
		}
		if resp.Batch.Outputs != 2 {
			t.Fatalf("batch answer %d: outputs=%d", i, resp.Batch.Outputs)
		}
		if resp.Cached == "coalesced" {
			coalesced++
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("identical batches ran %d syntheses, want 1", got)
	}
	if coalesced != 1 {
		t.Fatalf("%d answers marked coalesced, want 1", coalesced)
	}
}

// TestBatchUnpackWarmsSingleCache: a finished batch's converged
// per-output answers must land in the single-function cache under
// exactly the key a later single request uses — the later request is a
// memory hit and never touches the synthesis engine.
func TestBatchUnpackWarmsSingleCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var singleCalls atomic.Int32
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		singleCalls.Add(1)
		return fakeResult(), nil
	}
	s.synthMulti = func(fns []cube.Cover, opt core.Options, reduce bool) (*core.MultiResult, error) {
		return fakeMultiResult(len(fns)), nil
	}
	otherPLA := ".i 4\n.o 1\n1010 1\n0101 1\n.e\n"
	resp, err := s.SynthesizeBatch(context.Background(), BatchRequest{
		Functions: []BatchFunction{{PLA: fig1PLA}, {PLA: otherPLA}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusDone || resp.Batch == nil || len(resp.Batch.Parts) != 2 {
		t.Fatalf("batch did not finish: %+v", resp)
	}
	for _, p := range []string{fig1PLA, otherPLA} {
		single, err := s.Synthesize(context.Background(), Request{PLA: p})
		if err != nil {
			t.Fatal(err)
		}
		if single.Cached != "mem" {
			t.Fatalf("single request after batch: cached=%q, want mem (unpack missed)", single.Cached)
		}
	}
	if n := singleCalls.Load(); n != 0 {
		t.Fatalf("single synthesis ran %d times despite the unpacked batch", n)
	}
}

// TestBatchHTTPEndToEnd: the batch endpoint speaks the same protocol as
// the single one — canonical key header, tenant accounting from the
// X-Janus-Tenant header, 400s on malformed payloads.
func TestBatchHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.synthMulti = func(fns []cube.Cover, opt core.Options, reduce bool) (*core.MultiResult, error) {
		return fakeMultiResult(len(fns)), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"functions":[{"pla":".i 4\n.o 1\n1111 1\n.e\n"},{"pla":".i 4\n.o 1\n0000 1\n.e\n"}]}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/synthesize/batch", strings.NewReader(body))
	req.Header.Set("X-Janus-Tenant", "alpha")
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("batch POST: %d", hr.StatusCode)
	}
	if k := hr.Header.Get("X-Janus-Fn-Key"); len(k) != 64 {
		t.Fatalf("batch answer key %q, want 64-hex batch key", k)
	}
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Batch == nil || resp.Batch.Outputs != 2 || resp.Batch.Sol == "" {
		t.Fatalf("batch body: %+v", resp.Batch)
	}

	st := s.Stats()
	found := false
	for _, tn := range st.Scheduler.Tenants {
		if tn.Name == "alpha" && tn.Completed == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("tenant alpha not accounted: %+v", st.Scheduler.Tenants)
	}

	for _, bad := range []string{
		`{}`, // empty batch
		`{"pla":".i 1\n.o 1\n1 1\n.e\n","functions":[{"pla":".i 1\n.o 1\n1 1\n.e\n"}]}`, // both forms
		`{"functions":[{"pla":"not a pla"}]}`,
	} {
		r, err := http.Post(ts.URL+"/v1/synthesize/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("payload %s: status %d, want 400", bad, r.StatusCode)
		}
	}
}

// TestBatchKeyIdentity: the batch key must distinguish function order
// (packing is order-dependent) and the reduce flag, and stay disjoint
// from the single-function keyspace.
func TestBatchKeyIdentity(t *testing.T) {
	a := BatchFunction{PLA: fig1PLA}
	b := BatchFunction{PLA: ".i 4\n.o 1\n1100 1\n.e\n"}
	k1, err := BatchKeyOf(BatchRequest{Functions: []BatchFunction{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := BatchKeyOf(BatchRequest{Functions: []BatchFunction{b, a}})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("function order must change the batch key")
	}
	off := false
	k3, err := BatchKeyOf(BatchRequest{Functions: []BatchFunction{a, b}, Reduce: &off})
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("reduce on/off must change the batch key")
	}
	single, err := FnKeyOf(Request{PLA: fig1PLA})
	if err != nil {
		t.Fatal(err)
	}
	k4, err := BatchKeyOf(BatchRequest{Functions: []BatchFunction{a}})
	if err != nil {
		t.Fatal(err)
	}
	if k4 == single {
		t.Fatal("a one-function batch must not share the single-function key")
	}
}

// TestCacheLookupRejectsBadBudget: malformed budget parameters on the
// peer cache-fill endpoint must 400 — before the fix they silently read
// as 0, making a peer adopt answers computed under the wrong budget.
func TestCacheLookupRejectsBadBudget(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		return fakeResult(), nil
	}
	resp, err := s.Synthesize(context.Background(), fig1Request())
	if err != nil || resp.Status != StatusDone {
		t.Fatalf("seed synthesis: %v %v", resp, err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(query string) int {
		t.Helper()
		r, err := http.Get(ts.URL + "/v1/cache/" + resp.FnKey + query)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	if code := get(""); code != http.StatusOK {
		t.Fatalf("clean lookup: %d, want 200", code)
	}
	if code := get("?timeout_ms=0x10"); code != http.StatusBadRequest {
		t.Fatalf("garbage timeout_ms: %d, want 400", code)
	}
	if code := get("?max_conflicts=many"); code != http.StatusBadRequest {
		t.Fatalf("garbage max_conflicts: %d, want 400", code)
	}
	if code := get("?timeout_ms=5000&max_conflicts=100"); code != http.StatusOK {
		t.Fatalf("valid budget lookup: %d, want 200", code)
	}
}

// TestClientResponseTooLarge: a response body over the client's buffer
// cap must surface as a distinct APIError, not as a JSON parse error on
// a silently truncated body.
func TestClientResponseTooLarge(t *testing.T) {
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-Id", "big-1")
		w.Write(make([]byte, maxClientRespBody+1)) //nolint:errcheck
	}))
	defer huge.Close()
	_, err := NewClient(huge.URL).Synthesize(context.Background(), fig1Request())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v, want APIError", err)
	}
	if !strings.Contains(ae.Message, "response too large") {
		t.Fatalf("message %q lacks the oversize marker", ae.Message)
	}
	if ae.RequestID != "big-1" {
		t.Fatalf("request id %q not preserved", ae.RequestID)
	}
}

// TestHTTPAsyncParsesOnce: the handler now parses the request once and
// threads the parsed form through; the async flag must survive that
// path (202 + job id), and the eventual poll must carry the result.
func TestHTTPAsyncParsesOnce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		return fakeResult(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	resp, err := c.Synthesize(context.Background(), Request{PLA: fig1PLA, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.JobID == "" {
		t.Fatalf("async submit returned no job id: %+v", resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := c.Job(context.Background(), resp.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status == StatusDone {
			if got.Result == nil {
				t.Fatal("done poll without result")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %s", got.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
