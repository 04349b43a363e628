package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/obsv"
)

// TestJobTraceEndpoint: a real synthesis served over HTTP must leave a
// retrievable, schema-valid JSONL trace whose root Job span carries the
// request id and nests the core Synthesize span.
func TestJobTraceEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	resp, err := c.Synthesize(ctx, Request{PLA: fig1PLA})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusDone || resp.JobID == "" {
		t.Fatalf("synthesis: %+v", resp)
	}
	if resp.RequestID == "" {
		t.Fatal("response carries no request id")
	}

	raw, err := c.JobTrace(ctx, resp.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obsv.ValidateTrace(bytes.NewReader(raw)); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	recs, err := obsv.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]obsv.Record{}
	for _, r := range recs {
		byName[r.Span] = append(byName[r.Span], r)
	}
	jobs := byName["Job"]
	if len(jobs) != 1 {
		t.Fatalf("%d Job root spans, want 1", len(jobs))
	}
	job := jobs[0]
	if job.Parent != 0 {
		t.Fatal("Job span is not a root")
	}
	if job.Attrs["request_id"] != resp.RequestID {
		t.Fatalf("Job request_id attr = %v, want %q", job.Attrs["request_id"], resp.RequestID)
	}
	if job.Attrs["job_id"] != resp.JobID {
		t.Fatalf("Job job_id attr = %v, want %q", job.Attrs["job_id"], resp.JobID)
	}
	synths := byName["Synthesize"]
	if len(synths) != 1 || synths[0].Parent != job.ID {
		t.Fatalf("Synthesize spans %+v must nest under Job %d", synths, job.ID)
	}
	if len(byName["SatSolve"]) == 0 {
		t.Fatal("trace has no SatSolve leaf spans")
	}

	// An unknown job 404s; an in-flight one would 409 (not exercised here).
	if _, err := c.JobTrace(ctx, "jnope-1"); err == nil {
		t.Fatal("unknown job trace must fail")
	} else {
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != http.StatusNotFound {
			t.Fatalf("unknown job trace error = %v, want 404", err)
		}
	}
}

// TestTraceRetention: only the traceJobs most recent finished jobs keep
// their traces in the window; an older job answers ErrNoTrace (the job
// itself stays pollable far longer) unless its trace is pinned, and a
// pinned trace outlives both the window and the job retention.
func TestTraceRetention(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	partial := true // the first job's answer is partial, which pins its trace
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		if partial {
			return fakePartial(), nil
		}
		return fakeResult(), nil
	}
	var ids []string
	for i := 0; i < retainJobs+2; i++ {
		pla := fmt.Sprintf(".i 11\n.o 1\n%011b 1\n.e\n", i+1)
		resp, err := s.Synthesize(context.Background(), Request{PLA: pla})
		if err != nil {
			t.Fatal(err)
		}
		if resp.JobID == "" || resp.Status != StatusDone {
			t.Fatalf("job %d: %+v", i, resp)
		}
		partial = false
		ids = append(ids, resp.JobID)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("the first job is still pollable past the job retention")
	}
	raw, err := s.JobTrace(ids[0])
	if err != nil {
		t.Fatalf("pinned job %s: %v", ids[0], err)
	}
	if _, err := obsv.ValidateTrace(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pinned trace invalid: %v", err)
	}
	window := len(ids) - traceJobs
	if _, ok := s.Job(ids[window-1]); !ok {
		t.Fatal("the job just before the window is not pollable")
	}
	if _, err := s.JobTrace(ids[window-1]); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("evicted job %s trace err = %v, want ErrNoTrace", ids[window-1], err)
	}
	for _, id := range ids[window:] {
		raw, err := s.JobTrace(id)
		if err != nil {
			t.Fatalf("retained job %s: %v", id, err)
		}
		if _, err := obsv.ValidateTrace(bytes.NewReader(raw)); err != nil {
			t.Fatalf("retained trace invalid: %v", err)
		}
	}
	if st := s.Stats(); st.TracedJobs != traceJobs {
		t.Fatalf("Stats.TracedJobs = %d, want %d", st.TracedJobs, traceJobs)
	}
}

// TestFinishedJobKeepsNoTrace: a job's synthesis is traced under its Job
// span, passed in the core options, and a finished job, which stays
// retained for polls, no longer holds that span: through its tracer the
// span would keep the job's whole trace buffer alive past the trace
// window. The trace is still served from the window.
func TestFinishedJobKeepsNoTrace(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		if opt.TraceParent == nil || opt.Tracer != nil {
			t.Error("job options do not trace under the Job span alone")
		}
		return fakeResult(), nil
	}
	resp, err := s.Synthesize(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	span := s.jobs[resp.JobID].span
	s.mu.Unlock()
	if span != nil {
		t.Fatal("a finished job still holds its Job span")
	}
	if _, err := s.JobTrace(resp.JobID); err != nil {
		t.Fatalf("trace of the finished job: %v", err)
	}
}

// TestShouldPin: every arm of the pin rule. An error, a cancel, a
// partial answer and a done job of exactly 2s pin; a done job just under
// 2s does not.
func TestShouldPin(t *testing.T) {
	for _, c := range []struct {
		outcome string
		partial bool
		total   time.Duration
		want    bool
	}{
		{StatusError, false, 0, true},
		{StatusCanceled, false, 0, true},
		{StatusDone, true, 0, true},
		{StatusDone, false, 2 * time.Second, true},
		{StatusDone, false, 2*time.Second - time.Nanosecond, false},
		{StatusDone, false, 0, false},
	} {
		if got := shouldPin(c.outcome, c.partial, c.total); got != c.want {
			t.Errorf("shouldPin(%s, partial %v, %v) = %v, want %v",
				c.outcome, c.partial, c.total, got, c.want)
		}
	}
}

// TestFlightRecorder: the ring must contain the partial job (with its
// trace pinned), the shed 429, and the coalesced follower pointing at its
// leader — the incident-replay triple the recorder exists for.
func TestFlightRecorder(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		<-gate
		return fakePartial(), nil // a partial answer pins its trace
	}

	// Leader plus one coalesced follower on the same function.
	var wg sync.WaitGroup
	resps := make([]*Response, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], _ = s.Synthesize(context.Background(), fig1Request())
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		var waiters int
		for _, j := range s.inflight {
			waiters = j.waiters
		}
		s.mu.Unlock()
		if waiters == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower did not coalesce")
		}
		time.Sleep(time.Millisecond)
	}
	// Worker busy on the leader; fill the queue slot, then overflow it.
	if _, err := s.Synthesize(context.Background(),
		Request{PLA: ".i 2\n.o 1\n11 1\n.e\n", Async: true}); err != nil {
		t.Fatal(err)
	}
	_, shedErr := s.Synthesize(context.Background(), Request{PLA: ".i 2\n.o 1\n00 1\n.e\n"})
	if !errors.Is(shedErr, ErrBusy) {
		t.Fatalf("overflow returned %v, want ErrBusy", shedErr)
	}
	close(gate)
	wg.Wait()

	dump := s.Flight()
	var leader, shed, coalesced *FlightEntry
	for i := range dump.Entries {
		e := &dump.Entries[i]
		switch {
		case e.Outcome == outcomeShed:
			shed = e
		case e.CoalescedInto != "":
			coalesced = e
		}
	}
	if shed == nil {
		t.Fatalf("no shed entry in %+v", dump.Entries)
	}
	if shed.RequestID == "" {
		t.Fatal("shed entry has no request id")
	}
	if coalesced == nil {
		t.Fatal("no coalesced follower entry")
	}
	// The leader's own entry: done, trace pinned by the partial rule.
	for i := range dump.Entries {
		e := &dump.Entries[i]
		if e.JobID == coalesced.CoalescedInto && e.CoalescedInto == "" {
			leader = e
		}
	}
	if leader == nil {
		t.Fatalf("no leader entry for job %q", coalesced.CoalescedInto)
	}
	if leader.Outcome != StatusDone || !leader.Partial || !leader.TracePinned {
		t.Fatalf("leader entry not a pinned partial job: %+v", leader)
	}

	// The pin holds the job's own trace buffer, the one in the window,
	// not a copy; TestTraceRetention shows it outliving the window.
	b, ok := s.flight.pins.Get(leader.JobID)
	if w, _ := s.traces.Get(leader.JobID); !ok || b != w {
		t.Fatal("partial job trace not pinned, or pinned as a copy")
	}
	if _, err := obsv.ValidateTrace(bytes.NewReader(b.Bytes())); err != nil {
		t.Fatalf("pinned trace invalid: %v", err)
	}
}

// TestRequestIDPropagation: an inbound X-Request-Id must be echoed on
// the response header and body and stamped into the job trace; garbage
// headers are replaced with a minted id; error bodies carry the id too.
func TestRequestIDPropagation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		return fakeResult(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(id, body string) (*http.Response, string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/synthesize",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}

	okBody := fmt.Sprintf(`{"pla": %q}`, fig1PLA)
	resp, body := post("my-req-007", okBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "my-req-007" {
		t.Fatalf("header id = %q, want my-req-007", got)
	}
	if !strings.Contains(body, `"request_id":"my-req-007"`) {
		t.Fatalf("body missing request id: %s", body)
	}
	// The id reached the job trace through the context.
	var jobID string
	for _, id := range s.traces.IDs() {
		jobID = id
	}
	raw, err := s.JobTrace(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"request_id":"my-req-007"`)) {
		t.Fatalf("trace missing inbound request id: %s", raw)
	}

	// A header outside the sanitizer's alphabet is discarded, not echoed.
	resp, _ = post("evil id %00", okBody)
	if got := resp.Header.Get("X-Request-Id"); got == "" || strings.Contains(got, "evil") {
		t.Fatalf("unsanitized header echoed as %q", got)
	}

	// Errors carry the id in the body so a 4xx is traceable too.
	resp, body = post("bad-pla-req", `{"pla": ".i oops"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad PLA status = %d", resp.StatusCode)
	}
	if !strings.Contains(body, `"request_id":"bad-pla-req"`) {
		t.Fatalf("error body missing request id: %s", body)
	}
}

// TestHealthzDraining: /healthz must stay reachable during a drain and
// report 503 with draining=true and live queue numbers, so load
// balancers stop routing before the listener goes away.
func TestHealthzDraining(t *testing.T) {
	s, err := NewServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		close(started)
		<-release
		return fakeResult(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Synthesize(context.Background(), Request{PLA: fig1PLA, Async: true}); err != nil {
		t.Fatal(err)
	}
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// While the job holds the drain open, /healthz must answer 503.
	c := NewClient(ts.URL)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Health(context.Background())
		var ae *APIError
		if errors.As(err, &ae) && ae.Code == http.StatusServiceUnavailable {
			var st Stats
			resp, gerr := http.Get(ts.URL + "/healthz")
			if gerr != nil {
				t.Fatal(gerr)
			}
			if derr := jsonDecode(resp.Body, &st); derr != nil {
				t.Fatal(derr)
			}
			resp.Body.Close()
			if !st.Draining {
				t.Fatalf("503 healthz body not draining: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}
