package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/obsv"
)

// fakePartial is fakeResult degraded: a verified incumbent whose bounds
// never met (the search stopped with final lb 4 < size 8).
func fakePartial() core.Result {
	r := fakeResult()
	r.FinalLB = 4
	r.Partial = true
	return r
}

// waitStatus polls a job until it reaches want (or the deadline).
func waitStatus(t *testing.T, s *Server, id, want string) *Response {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		jr, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s not pollable", id)
		}
		if jr.Status == want {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s status = %q, want %q", id, jr.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlinePartialIsDone is the regression test for the anytime
// degradation contract: a synchronous request whose deadline expires
// AFTER the bounds phase produced a verified incumbent must be answered
// status "done" with partial:true and the mapping — never surface as an
// error or a bare timeout. The answer is exact for its budget (timeout_ms
// is in the cache key), so it must also be cached; and a coalesced
// follower of the same job must see the identical degraded answer.
func TestDeadlinePartialIsDone(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var calls atomic.Int32
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		calls.Add(1)
		// A search that holds an incumbent and burns its whole budget
		// trying (and failing) to close the gap.
		<-opt.Ctx.Done()
		return fakePartial(), nil
	}

	req := Request{PLA: fig1PLA, TimeoutMS: 300}
	type answer struct {
		resp *Response
		err  error
	}
	leadc := make(chan answer, 1)
	go func() {
		r, err := s.Synthesize(context.Background(), req)
		leadc <- answer{r, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for gRunning.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	follower, err := s.Synthesize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	lead := <-leadc
	if lead.err != nil {
		t.Fatal(lead.err)
	}
	for name, resp := range map[string]*Response{"leader": lead.resp, "follower": follower} {
		if resp.Status != StatusDone {
			t.Fatalf("%s status = %q (err %q), want done", name, resp.Status, resp.Error)
		}
		if resp.Result == nil || !resp.Result.Partial {
			t.Fatalf("%s: deadline-expired answer must be partial, got %+v", name, resp.Result)
		}
		if len(resp.Result.Lattice) == 0 {
			t.Fatalf("%s: partial answer lost its verified mapping", name)
		}
		if resp.Result.FinalLB != 4 {
			t.Fatalf("%s final_lb = %d, want 4", name, resp.Result.FinalLB)
		}
	}
	if follower.Cached != "coalesced" {
		t.Fatalf("follower cached = %q, want coalesced", follower.Cached)
	}
	if calls.Load() != 1 {
		t.Fatalf("coalesced pair ran %d syntheses, want 1", calls.Load())
	}

	// The partial IS the agreed answer for this budget: a repeat request
	// must come from cache, not re-search.
	resp, err := s.Synthesize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached != "mem" || !resp.Result.Partial {
		t.Fatalf("repeat = cached %q partial %v, want mem/true", resp.Cached, resp.Result.Partial)
	}
	if calls.Load() != 1 {
		t.Fatal("repeat request re-ran the synthesis")
	}
}

// TestDeadlinePartialHTTP200 pins the HTTP face of the same contract:
// the POST answers 200 with status done and partial:true, not a 5xx.
func TestDeadlinePartialHTTP200(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		<-opt.Ctx.Done()
		return fakePartial(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json",
		strings.NewReader(`{"pla": ".i 4\n.o 1\n1111 1\n0000 1\n.e\n", "timeout_ms": 300}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline-expired synthesis answered %d (%s), want 200", resp.StatusCode, body)
	}
	text := string(body)
	if !strings.Contains(text, `"status":"done"`) || !strings.Contains(text, `"partial":true`) {
		t.Fatalf("body = %s, want done + partial:true", text)
	}
}

// TestCancelWithIncumbentUncached: a job cancelled mid-run with a
// verified incumbent settles done+partial (the waiter that comes back
// polling gets the mapping), but the answer must NOT enter the caches —
// the cancelled run used less than its nominal budget, so caching it
// would claim that budget buys no better.
func TestCancelWithIncumbentUncached(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var calls atomic.Int32
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		calls.Add(1)
		<-opt.Ctx.Done()
		return fakePartial(), nil
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
	if resp.JobID == "" {
		t.Fatalf("abandoned request must return a job id, got %+v", resp)
	}
	jr := waitStatus(t, s, resp.JobID, StatusDone)
	if jr.Result == nil || !jr.Result.Partial || len(jr.Result.Lattice) == 0 {
		t.Fatalf("cancelled-with-incumbent job result = %+v, want partial mapping", jr.Result)
	}

	// Same question again: must synthesize afresh, not hit a cache.
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		calls.Add(1)
		return fakeResult(), nil
	}
	resp2, err := s.Synthesize(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cached != "" {
		t.Fatalf("under-budget partial leaked into the %q cache", resp2.Cached)
	}
	if calls.Load() != 2 {
		t.Fatalf("synth calls = %d, want 2 (partial must not be cached)", calls.Load())
	}
}

// TestJobProgressSnapshot: the snapshot inlined into job polls rolls up
// the event stream — monotone bounds, best incumbent, steps and grids —
// and ignores sub-synthesis events, whose bounds describe part covers.
func TestJobProgressSnapshot(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		sink := obsv.ProgressFromContext(opt.Ctx)
		if sink == nil {
			t.Error("job context carries no progress sink")
			return fakeResult(), nil
		}
		sink.Progress(obsv.ProgressEvent{Kind: obsv.ProgressPhaseStart, Phase: "bounds"})
		sink.Progress(obsv.ProgressEvent{Kind: obsv.ProgressIncumbent, Size: 12, Grid: "4x3", Verified: true})
		sink.Progress(obsv.ProgressEvent{Kind: obsv.ProgressBound, LB: 2, UB: 12, Method: "DPS"})
		// A sub-synthesis bound: tighter than anything top-level, and it
		// must NOT reach the snapshot.
		sink.Progress(obsv.ProgressEvent{Kind: obsv.ProgressBound, LB: 7, UB: 7, Method: "sat", Sub: true})
		sink.Progress(obsv.ProgressEvent{Kind: obsv.ProgressIncumbent, Size: 8, Grid: "4x2", Verified: true})
		sink.Progress(obsv.ProgressEvent{Kind: obsv.ProgressBound, LB: 4, UB: 8, Method: "sat"})
		sink.Progress(obsv.ProgressEvent{Kind: obsv.ProgressStep, Step: 1, GridsProbed: 3})
		<-release
		r := fakeResult()
		r.FinalLB = 8
		return r, nil
	}

	resp, err := s.Synthesize(context.Background(), Request{PLA: fig1PLA, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	var snap *ProgressJSON
	deadline := time.Now().Add(5 * time.Second)
	for {
		jr, ok := s.Job(resp.JobID)
		if !ok {
			t.Fatal("job not pollable")
		}
		if jr.Progress != nil && jr.Progress.Steps == 1 {
			snap = jr.Progress
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never caught up: %+v", jr.Progress)
		}
		time.Sleep(time.Millisecond)
	}
	if snap.LB != 4 || snap.UB != 8 {
		t.Fatalf("snapshot bounds = %d/%d, want 4/8 (sub events must not roll up)", snap.LB, snap.UB)
	}
	if snap.BestSize != 8 || snap.BestGrid != "4x2" {
		t.Fatalf("best incumbent = %d %q, want 8 4x2", snap.BestSize, snap.BestGrid)
	}
	if snap.GridsProbed != 3 {
		t.Fatalf("snapshot grids probed = %d, want 3", snap.GridsProbed)
	}
	if snap.FirstMappingMS <= 0 {
		t.Fatal("first mapping time not stamped")
	}
	if snap.Events != 7 {
		t.Fatalf("event horizon = %d, want 7", snap.Events)
	}
	close(release)
	waitStatus(t, s, resp.JobID, StatusDone)

	// The terminal event folds the final bounds in and closes the stream.
	p, ok := s.JobEvents(resp.JobID)
	if !ok || p == nil {
		t.Fatal("events stream gone after completion")
	}
	evs, terminal := p.eventsSince(0)
	if !terminal {
		t.Fatal("finished job's stream must be terminal")
	}
	last := evs[len(evs)-1]
	if last.Kind != "done" || last.Status != StatusDone || last.LB != 8 || last.UB != 8 || last.Partial {
		t.Fatalf("terminal event = %+v, want done 8/8 non-partial", last)
	}
	// Cursor resume: only events past the cursor come back.
	tail, _ := p.eventsSince(last.Seq - 1)
	if len(tail) != 1 || tail[0].Seq != last.Seq {
		t.Fatalf("resume after %d returned %d events", last.Seq-1, len(tail))
	}
	// The anytime SLO saw the job.
	for _, slo := range s.Stats().SLOs {
		if slo.Name == "first_mapping" && slo.Total < 1 {
			t.Fatal("first-mapping SLO missed the job")
		}
	}
}

// TestProgressRingEviction: a ring smaller than the stream keeps the
// newest events; a cursor that fell off the retained window resumes at
// the oldest retained event instead of erroring.
func TestProgressRingEviction(t *testing.T) {
	p := newProgressState(4, time.Now())
	for i := 1; i <= 10; i++ {
		p.Progress(obsv.ProgressEvent{Kind: obsv.ProgressBound, LB: i, UB: 20})
	}
	evs, terminal := p.eventsSince(0)
	if terminal {
		t.Fatal("stream terminal before finish")
	}
	if len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("ring retained %d events starting at %d, want 4 from 7", len(evs), evs[0].Seq)
	}
	if evs[3].LB != 10 {
		t.Fatalf("newest event lb = %d, want 10", evs[3].LB)
	}
	p.finish(StatusDone, 20, 20, false)
	evs, terminal = p.eventsSince(10)
	if !terminal || len(evs) != 1 || evs[0].Kind != "done" {
		t.Fatalf("after finish: terminal=%v evs=%+v", terminal, evs)
	}
	// finish is idempotent: a second call must not append another event.
	p.finish(StatusCanceled, 0, 0, true)
	if evs, _ := p.eventsSince(10); len(evs) != 1 {
		t.Fatal("double finish appended a second terminal event")
	}
}

// TestProgressNilSafety: a nil state (progress disabled) no-ops on every
// method, so the service never branches on the config.
func TestProgressNilSafety(t *testing.T) {
	var p *progressState
	p.Progress(obsv.ProgressEvent{Kind: obsv.ProgressBound, LB: 1})
	p.finish(StatusDone, 1, 1, false)
	if p.snapshot() != nil {
		t.Fatal("nil snapshot must be nil")
	}
	if p.firstMappingAt() != 0 {
		t.Fatal("nil first mapping must be 0")
	}
	if evs, terminal := p.eventsSince(0); evs != nil || !terminal {
		t.Fatal("nil eventsSince must be empty and terminal")
	}
}

// TestEventsEndpoint: the long-poll face (?wait=) pages events with a
// resumable cursor, and the SSE face replays the ring with seq ids and
// ends after the terminal event; Last-Event-ID resumes mid-stream.
func TestEventsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		sink := obsv.ProgressFromContext(opt.Ctx)
		sink.Progress(obsv.ProgressEvent{Kind: obsv.ProgressIncumbent, Size: 8, Grid: "4x2", Verified: true})
		sink.Progress(obsv.ProgressEvent{Kind: obsv.ProgressBound, LB: 4, UB: 8, Method: "DPS"})
		<-release
		return fakeResult(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	resp, err := client.Synthesize(ctx, Request{PLA: fig1PLA, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	page, err := client.JobEvents(ctx, resp.JobID, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) < 1 || page.Terminal {
		t.Fatalf("first page: %d events terminal=%v", len(page.Events), page.Terminal)
	}
	if page.Next != page.Events[len(page.Events)-1].Seq {
		t.Fatalf("next cursor %d does not match last seq %d", page.Next, page.Events[len(page.Events)-1].Seq)
	}
	close(release)
	// Drain to terminal; cursors must advance without replays.
	after := page.Next
	deadline := time.Now().Add(10 * time.Second)
	for {
		page, err = client.JobEvents(ctx, resp.JobID, after, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range page.Events {
			if e.Seq <= after {
				t.Fatalf("event %d replayed at cursor %d", e.Seq, after)
			}
			after = e.Seq
		}
		if page.Terminal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never reached terminal")
		}
	}
	if page.Events[len(page.Events)-1].Kind != "done" {
		t.Fatalf("last event = %+v, want done", page.Events[len(page.Events)-1])
	}

	// SSE replay of the finished stream: every frame carries its seq as
	// the event id, the kinds are spelled out, and the body ends at the
	// terminal event (the request returns without hanging).
	sse, err := http.Get(ts.URL + "/v1/jobs/" + resp.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	if ct := sse.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(sse.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"id: 1\n", "event: incumbent\n", "event: bound\n", "event: done\n", `"lb":4`} {
		if !strings.Contains(text, want) {
			t.Fatalf("SSE body missing %q:\n%s", want, text)
		}
	}

	// Last-Event-ID resume: everything at or before the cursor is skipped.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+resp.JobID+"/events", nil)
	req.Header.Set("Last-Event-ID", "2")
	sse2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sse2.Body.Close()
	body2, _ := io.ReadAll(sse2.Body)
	if strings.Contains(string(body2), "id: 1\n") || strings.Contains(string(body2), "id: 2\n") {
		t.Fatalf("Last-Event-ID resume replayed acknowledged events:\n%s", body2)
	}
	if !strings.Contains(string(body2), "event: done\n") {
		t.Fatalf("resumed stream lost the terminal event:\n%s", body2)
	}
}

// TestEventsEndpointErrors: unknown jobs and disabled progress both
// answer 404, with distinct messages.
func TestEventsEndpointErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, ProgressEvents: -1})
	gate := make(chan struct{})
	defer close(gate)
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		<-gate
		return fakeResult(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	var ae *APIError
	if _, err := client.JobEvents(ctx, "nope", 0, 0); !errors.As(err, &ae) || ae.Code != 404 {
		t.Fatalf("unknown job: %v", err)
	}
	resp, err := client.Synthesize(ctx, Request{PLA: fig1PLA, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.JobEvents(ctx, resp.JobID, 0, 0); !errors.As(err, &ae) || ae.Code != 404 {
		t.Fatalf("disabled progress: %v", err)
	}
	// With progress off, job polls simply omit the snapshot.
	jr, err := client.Job(ctx, resp.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Progress != nil {
		t.Fatal("disabled progress leaked a snapshot into the poll")
	}
}
