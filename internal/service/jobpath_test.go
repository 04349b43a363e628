package service

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/obsv"
)

// jobPathServer returns a one-worker server whose two syntheses both run
// body under the job context and then answer: a partial mapping for a
// function, a packed lattice for a batch.
func jobPathServer(t *testing.T, body func(ctx context.Context)) *Server {
	t.Helper()
	s := newTestServer(t, Config{Workers: 1})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		body(opt.Ctx)
		return fakePartial(), nil
	}
	s.synthMulti = func(fns []cube.Cover, opt core.Options, reduce bool) (*core.MultiResult, error) {
		body(opt.Ctx)
		return fakeMultiResult(len(fns)), nil
	}
	return s
}

// waitUntil polls cond until it holds or five seconds pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// flightEntryWhere returns the first flight entry match accepts.
func flightEntryWhere(t *testing.T, s *Server, match func(FlightEntry) bool) FlightEntry {
	t.Helper()
	for _, e := range s.Flight().Entries {
		if match(e) {
			return e
		}
	}
	t.Fatalf("no matching flight entry in %+v", s.Flight().Entries)
	return FlightEntry{}
}

// TestJobPathSingleAndBatch drives the one job path with both kinds of
// work, a single request and a 2-function batch, over stubbed syntheses:
//
//	(a) a job cancelled while queued ends canceled, its flight entry says
//	    "canceled while queued", and nothing is cached;
//	(b) the job trace validates and roots at Job, whose outputs attribute
//	    counts a batch's functions;
//	(c) a coalesced follower's flight entry carries the answer's grid,
//	    which for a batch is its packed lattice's sol;
//	(d) a job cancelled mid-run with an answer in hand is served but not
//	    cached (for a batch, not unpacked either).
func TestJobPathSingleAndBatch(t *testing.T) {
	single := fig1Request()
	batch := BatchRequest{Functions: []BatchFunction{
		{PLA: fig1PLA}, {PLA: ".i 4\n.o 1\n1100 1\n0011 1\n.e\n"},
	}}
	blocker := Request{PLA: ".i 4\n.o 1\n1010 1\n0101 1\n.e\n", Async: true}
	p, err := parseRequest(single)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := parseBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []struct {
		name   string
		submit func(ctx context.Context, s *Server) (*Response, error)
		// keys are what a finished answer would be cached under: the
		// job's own key, then a batch's unpacked functions.
		keys    []string
		grid    string // the stubbed answer's shape
		outputs any    // the Job span's outputs attribute after decoding
	}{
		{
			name: "single",
			submit: func(ctx context.Context, s *Server) (*Response, error) {
				return s.Synthesize(ctx, single)
			},
			keys: []string{p.key},
			grid: "4x2",
		},
		{
			name: "batch",
			submit: func(ctx context.Context, s *Server) (*Response, error) {
				return s.SynthesizeBatch(ctx, batch)
			},
			keys:    []string{pb.key, pb.fns[0].key, pb.fns[1].key},
			grid:    "4x5",
			outputs: float64(2),
		},
	} {
		uncached := func(t *testing.T, s *Server) {
			t.Helper()
			for _, key := range k.keys {
				if _, ok := s.mem.get(key); ok {
					t.Errorf("answer cached under %s", key[:12])
				}
			}
		}
		// submitAsync runs a synchronous submission in the background.
		submitAsync := func(t *testing.T, ctx context.Context, s *Server) <-chan *Response {
			out := make(chan *Response, 1)
			go func() {
				resp, err := k.submit(ctx, s)
				if err != nil {
					t.Error(err)
				}
				out <- resp
			}()
			return out
		}

		t.Run(k.name+"/canceled_while_queued", func(t *testing.T) {
			gate := make(chan struct{})
			s := jobPathServer(t, func(ctx context.Context) {
				select {
				case <-gate:
				case <-ctx.Done():
				}
			})
			// Another function occupies the only worker.
			if _, err := s.Synthesize(context.Background(), blocker); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			respc := submitAsync(t, ctx, s)
			waitUntil(t, "the job to queue", func() bool { return s.Stats().QueueDepth == 1 })
			cancel()
			resp := <-respc
			close(gate)
			jr := waitStatus(t, s, resp.JobID, StatusCanceled)
			if jr.Error != "canceled while queued" {
				t.Fatalf("job error = %q, want canceled while queued", jr.Error)
			}
			e := flightEntryWhere(t, s, func(e FlightEntry) bool { return e.JobID == resp.JobID })
			if e.Outcome != StatusCanceled || e.Error != "canceled while queued" {
				t.Fatalf("flight entry = %+v, want canceled while queued", e)
			}
			uncached(t, s)
		})

		t.Run(k.name+"/trace", func(t *testing.T) {
			s := jobPathServer(t, func(context.Context) {})
			resp, err := k.submit(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != StatusDone {
				t.Fatalf("status = %s, want done", resp.Status)
			}
			raw, err := s.JobTrace(resp.JobID)
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
			var roots []obsv.Record
			for _, r := range recs {
				if r.Parent == 0 {
					roots = append(roots, r)
				}
			}
			if len(roots) != 1 || roots[0].Span != "Job" {
				t.Fatalf("trace roots %+v, want one Job", roots)
			}
			if got := roots[0].Attrs["outputs"]; got != k.outputs {
				t.Fatalf("Job outputs = %v, want %v", got, k.outputs)
			}
		})

		t.Run(k.name+"/coalesced_follower", func(t *testing.T) {
			gate := make(chan struct{})
			s := jobPathServer(t, func(ctx context.Context) {
				select {
				case <-gate:
				case <-ctx.Done():
				}
			})
			leader := submitAsync(t, context.Background(), s)
			follower := submitAsync(t, context.Background(), s)
			waitUntil(t, "the follower to join", func() bool {
				s.mu.Lock()
				defer s.mu.Unlock()
				j := s.inflight[k.keys[0]]
				return j != nil && j.waiters == 2
			})
			close(gate)
			for _, rc := range []<-chan *Response{leader, follower} {
				if resp := <-rc; resp == nil || resp.Status != StatusDone {
					t.Fatalf("answer %+v, want done", resp)
				}
			}
			e := flightEntryWhere(t, s, func(e FlightEntry) bool { return e.CoalescedInto != "" })
			if e.Grid != k.grid {
				t.Fatalf("follower flight grid = %q, want %q", e.Grid, k.grid)
			}
		})

		t.Run(k.name+"/canceled_mid_run", func(t *testing.T) {
			entered := make(chan struct{})
			s := jobPathServer(t, func(ctx context.Context) {
				close(entered)
				<-ctx.Done()
			})
			ctx, cancel := context.WithCancel(context.Background())
			respc := submitAsync(t, ctx, s)
			<-entered
			cancel()
			resp := <-respc
			jr := waitStatus(t, s, resp.JobID, StatusDone)
			if jr.Result == nil && jr.Batch == nil {
				t.Fatalf("cancelled job with an answer served none: %+v", jr)
			}
			uncached(t, s)
		})
	}
}
