package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
)

const fig1PLA = ".i 4\n.o 1\n1111 1\n0000 1\n.e\n"

func fig1Request() Request { return Request{PLA: fig1PLA} }

// fakeResult is a minimal plausible outcome for stubbed syntheses.
func fakeResult() core.Result {
	g := lattice.Grid{M: 4, N: 2}
	return core.Result{Assignment: lattice.NewAssignment(g), Grid: g, Size: 8}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// TestCanonicalization: the canonical key must see through cube order,
// whitespace, and comments, and must distinguish different budgets.
func TestCanonicalization(t *testing.T) {
	a, err := parseRequest(Request{PLA: fig1PLA})
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseRequest(Request{PLA: "# same function\n.i 4\n.o 1\n0000 1\n1111 1\n.e\n"})
	if err != nil {
		t.Fatal(err)
	}
	if a.key != b.key {
		t.Fatal("reordered cubes must share a canonical key")
	}
	c, err := parseRequest(Request{PLA: fig1PLA, TimeoutMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if c.key == a.key {
		t.Fatal("different budgets must not share a key")
	}
	d, err := parseRequest(Request{PLA: fig1PLA, MaxConflicts: 99})
	if err != nil {
		t.Fatal(err)
	}
	if d.key == a.key || d.key == c.key {
		t.Fatal("different conflict budgets must not share a key")
	}
}

// TestEngineRequestField: the engine-selection fields are gone from the
// wire. A single or batch request that still sends engine, cegar or
// portfolio is rejected with 400 like any unknown field, before it
// reaches the queue; the same body without the field is served.
func TestEngineRequestField(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	pla := `"pla": ".i 2\n.o 1\n11 1\n.e\n"`
	for _, field := range []string{`"engine": "shared"`, `"cegar": true`, `"portfolio": true`} {
		if code := post("/v1/synthesize", "{"+pla+", "+field+"}"); code != http.StatusBadRequest {
			t.Errorf("synthesize with %s: status %d, want 400", field, code)
		}
		batch := `{"functions": [{` + pla + `}], ` + field + `}`
		if code := post("/v1/synthesize/batch", batch); code != http.StatusBadRequest {
			t.Errorf("batch with %s: status %d, want 400", field, code)
		}
	}
	if code := post("/v1/synthesize", "{"+pla+"}"); code != http.StatusOK {
		t.Fatalf("plain request: status %d, want 200", code)
	}
}

// TestHugeOutputCountRejected: a tiny body declaring ten million PLA
// outputs is refused with 400 before anything sized by the count is
// allocated (the parser bounds .o at pla.MaxOutputs).
func TestHugeOutputCountRejected(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"pla": ".i 1\n.o 10000000\n.e\n"}`
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestCoalesce: N identical concurrent requests must run exactly one
// synthesis; the joiners are answered from the same job with
// Cached == "coalesced". Run under -race in CI this also checks the
// submit/finish paths for data races.
func TestCoalesce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var calls atomic.Int32
	gate := make(chan struct{})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		calls.Add(1)
		<-gate
		return fakeResult(), nil
	}

	const n = 8
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Synthesize(context.Background(), fig1Request())
		}(i)
	}
	// Wait until every request is attached to the single in-flight job,
	// then let the synthesis finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		var waiters int
		for _, j := range s.inflight {
			waiters = j.waiters
		}
		s.mu.Unlock()
		if waiters == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters attached", waiters, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if c := calls.Load(); c != 1 {
		t.Fatalf("%d syntheses for %d identical requests, want 1", c, n)
	}
	coalesced := 0
	for i := range resps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if resps[i].Status != StatusDone || resps[i].Result == nil || resps[i].Result.Size != 8 {
			t.Fatalf("response %d: %+v", i, resps[i])
		}
		if resps[i].Cached == "coalesced" {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d coalesced responses, want %d", coalesced, n-1)
	}

	// The finished outcome is now in the memory tier.
	resp, err := s.Synthesize(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached != "mem" {
		t.Fatalf("repeat request cached=%q, want mem", resp.Cached)
	}
}

// TestCancelFreesWorker: abandoning the only waiter of a running job
// must cancel it and free the worker slot promptly for the next job.
func TestCancelFreesWorker(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		// A cooperative engine: runs until cancelled, like a long search
		// interrupted before it found any mapping. (A cancel that DOES
		// hold a verified incumbent settles done instead — see
		// TestCancelWithIncumbent.)
		<-opt.Ctx.Done()
		return core.Result{}, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	resp, err := s.Synthesize(ctx, fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	// The waiter left before the job finished: it gets a poll handle.
	if resp.JobID == "" {
		t.Fatalf("abandoned request must return a job id, got %+v", resp)
	}

	// The freed worker must pick up a different job promptly.
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		return fakeResult(), nil
	}
	start := time.Now()
	resp2, err := s.Synthesize(context.Background(),
		Request{PLA: ".i 2\n.o 1\n11 1\n.e\n"})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Status != StatusDone {
		t.Fatalf("follow-up job status = %q", resp2.Status)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("worker slot not freed: follow-up took %v", e)
	}

	// The abandoned job settles as canceled and stays pollable.
	deadline := time.Now().Add(5 * time.Second)
	for {
		jr, ok := s.Job(resp.JobID)
		if !ok {
			t.Fatal("abandoned job no longer pollable")
		}
		if jr.Status == StatusCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned job status = %q, want canceled", jr.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackpressure: with the single worker busy and the queue full, the
// next distinct request is rejected with ErrBusy instead of buffering.
func TestBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		<-gate
		return fakeResult(), nil
	}

	plas := []string{
		".i 2\n.o 1\n11 1\n.e\n",
		".i 2\n.o 1\n00 1\n.e\n",
		".i 2\n.o 1\n10 1\n.e\n",
	}
	// Occupy the worker; wait until the job actually leaves the queue so
	// the next submit holds the queue slot rather than racing the worker.
	for i, p := range plas[:2] {
		resp, err := s.Synthesize(context.Background(), Request{PLA: p, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		if resp.JobID == "" {
			t.Fatalf("async submit: %+v", resp)
		}
		if i == 0 {
			deadline := time.Now().Add(5 * time.Second)
			for gRunning.Value() < 1 {
				if time.Now().After(deadline) {
					t.Fatal("no job started running")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if _, err := s.Synthesize(context.Background(), Request{PLA: plas[2]}); !errors.Is(err, ErrBusy) {
		t.Fatalf("full queue returned %v, want ErrBusy", err)
	}
	close(gate)
}

// TestShutdownDrains: Shutdown must finish accepted jobs before
// returning, and reject new work while draining.
func TestShutdownDrains(t *testing.T) {
	s, err := NewServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		close(started)
		time.Sleep(50 * time.Millisecond)
		return fakeResult(), nil
	}
	resp, err := s.Synthesize(context.Background(), Request{PLA: fig1PLA, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	jr, ok := s.Job(resp.JobID)
	if !ok || jr.Status != StatusDone {
		t.Fatalf("in-flight job after drain: %+v (ok=%v), want done", jr, ok)
	}
	// A cache hit is still served while draining; a fresh function is not.
	if _, err := s.Synthesize(context.Background(),
		Request{PLA: ".i 2\n.o 1\n01 1\n.e\n"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining returned %v, want ErrDraining", err)
	}
}

// TestPersistentCache is the warm-restart acceptance test: a second
// server instance on the same cache directory must answer a repeated
// request from the disk tier without synthesizing, and must have loaded
// the memo path snapshot the first instance persisted.
func TestPersistentCache(t *testing.T) {
	dir := t.TempDir()

	s1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	resp, err := s1.Synthesize(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusDone || resp.Result.Size != 8 || resp.Cached != "" {
		t.Fatalf("cold synthesis: %+v", resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "paths.json")); err != nil {
		t.Fatalf("memo snapshot not persisted: %v", err)
	}

	// "New process": fresh server, same directory.
	diskHitsBefore := mDiskHits.Value()
	var synths atomic.Int32
	s2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	inner := s2.synth
	s2.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		synths.Add(1)
		return inner(f, opt)
	}
	if s2.Stats().MemoLoaded < 1 {
		t.Fatal("second instance loaded no memo path snapshot")
	}
	resp2, err := s2.Synthesize(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cached != "disk" || resp2.Status != StatusDone || resp2.Result.Size != 8 {
		t.Fatalf("warm request: %+v, want disk-cached 4x2", resp2)
	}
	if synths.Load() != 0 {
		t.Fatal("warm request ran a synthesis")
	}
	if mDiskHits.Value() != diskHitsBefore+1 {
		t.Fatalf("disk hit counter delta = %d, want 1", mDiskHits.Value()-diskHitsBefore)
	}
	// The disk hit was promoted to the memory tier.
	resp3, err := s2.Synthesize(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Cached != "mem" {
		t.Fatalf("promoted request cached=%q, want mem", resp3.Cached)
	}
}

// TestHTTPEndToEnd drives the full HTTP surface with the Client: a real
// synthesis of Fig. 1, a health check, the async poll loop, and a 404.
func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	resp, err := c.Synthesize(ctx, fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusDone || resp.Result == nil || resp.Result.Size != 8 {
		t.Fatalf("fig1 over HTTP: %+v", resp)
	}
	if len(resp.Result.Lattice) != resp.Result.M {
		t.Fatalf("lattice rows = %d, want %d", len(resp.Result.Lattice), resp.Result.M)
	}

	st, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Draining || st.Workers != 2 {
		t.Fatalf("healthz: %+v", st)
	}

	// Async flow: submit, then poll to completion.
	async, err := c.Synthesize(ctx, Request{PLA: ".i 3\n.o 1\n111 1\n000 1\n.e\n", Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if async.JobID == "" {
		t.Fatalf("async submit: %+v", async)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		jr, err := c.Job(ctx, async.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if jr.Status == StatusDone {
			break
		}
		if jr.Status == StatusError || jr.Status == StatusCanceled {
			t.Fatalf("async job: %+v", jr)
		}
		if time.Now().After(deadline) {
			t.Fatal("async job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := c.Job(ctx, "jnope-1"); err == nil {
		t.Fatal("unknown job id must 404")
	} else {
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != 404 {
			t.Fatalf("unknown job error = %v, want 404 APIError", err)
		}
	}

	// Malformed PLA over HTTP is a 400.
	if _, err := c.Synthesize(ctx, Request{PLA: ".i oops"}); err == nil {
		t.Fatal("malformed PLA must fail")
	} else {
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != 400 {
			t.Fatalf("malformed PLA error = %v, want 400 APIError", err)
		}
	}
}
