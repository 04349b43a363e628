package front

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/service"
)

// TestFrontStitchedTrace: a job routed through the front serves ONE
// trace from GET /v1/jobs/{id}/trace — the front's Route/Attempt spans
// and the backend's Job tree under a single trace id, with the Job span
// re-parented under the Attempt that carried it, and the whole stream
// still passing the trace validator.
func TestFrontStitchedTrace(t *testing.T) {
	b1 := startBackend(t, "")
	b2 := startBackend(t, "")
	_, c := startFront(t, b1, b2)

	ctx := context.Background()
	resp, err := c.Synthesize(ctx, service.Request{PLA: pla(3), TimeoutMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != service.StatusDone || resp.JobID == "" {
		t.Fatalf("synthesis: %+v", resp)
	}
	raw, err := c.JobTrace(ctx, resp.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obsv.ValidateTrace(bytes.NewReader(raw)); err != nil {
		t.Fatalf("stitched trace invalid: %v\n%s", err, raw)
	}
	recs, err := obsv.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]obsv.Record{}
	traceIDs := map[string]bool{}
	for _, rec := range recs {
		byName[rec.Span] = rec
		traceIDs[rec.TraceID] = true
	}
	if len(traceIDs) != 1 || traceIDs[""] {
		t.Fatalf("stitched stream carries trace ids %v, want one non-empty id", traceIDs)
	}
	route, ok := byName["Route"]
	if !ok || route.Proc != "front" || route.Parent != 0 {
		t.Fatalf("Route span missing or malformed: %+v", route)
	}
	attempt, ok := byName["Attempt"]
	if !ok || attempt.Parent != route.ID {
		t.Fatalf("Attempt span missing or not under Route: %+v", attempt)
	}
	job, ok := byName["Job"]
	if !ok || job.Proc != "janusd" {
		t.Fatalf("backend Job span missing from stitched stream: %+v", job)
	}
	if job.Parent != attempt.ID {
		t.Fatalf("Job parent = %d, want the Attempt span %d", job.Parent, attempt.ID)
	}
}

// TestFrontFleetProm: /metrics/prom on the front is one strict
// exposition — the front's own series unlabeled, every backend's series
// tagged backend="id", and exactly one # TYPE line per family even
// though every backend exports the same families.
func TestFrontFleetProm(t *testing.T) {
	b1 := startBackend(t, "")
	b2 := startBackend(t, "")
	f, c := startFront(t, b1, b2)

	// Push one request through so both front and backend counters move.
	if _, err := c.Synthesize(context.Background(), service.Request{PLA: pla(1), TimeoutMS: 60_000}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obsv.PromContentType {
		t.Fatalf("content type %q, want %q", ct, obsv.PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	if !strings.Contains(out, "janus_front_requests_total") {
		t.Fatalf("front's own series missing:\n%s", out)
	}
	for _, st := range f.states {
		want := `backend="` + st.backend.ID + `"`
		if !strings.Contains(out, want) {
			t.Fatalf("no series labeled %s:\n%s", want, out)
		}
	}
	// Strict parsers reject duplicate TYPE lines; assert uniqueness and
	// that every line is either a TYPE comment or "name[{labels}] value".
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if seen[line] {
				t.Fatalf("duplicate %q in fleet exposition", line)
			}
			seen[line] = true
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
	}
}

// TestFrontStatsLaggards: a backend that cannot answer the live stats
// fan-out is named in front.stats_laggards, while the healthy member
// still reports live numbers with its fan-out duration.
func TestFrontStatsLaggards(t *testing.T) {
	b1 := startBackend(t, "")
	b2 := startBackend(t, "")
	_, c := startFront(t, b1, b2)
	deadID := BackendIDMust(t, b2.ts.URL)
	b2.ts.Close() // connection refused → fast per-backend failure

	resp, err := http.Get(c.BaseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Front.StatsLaggards) != 1 || st.Front.StatsLaggards[0] != deadID {
		t.Fatalf("stats_laggards = %v, want [%s]", st.Front.StatsLaggards, deadID)
	}
	for _, bs := range st.Backends {
		if bs.ID == deadID {
			if bs.Stats != nil {
				t.Fatalf("laggard %s carries live stats", bs.ID)
			}
			continue
		}
		if bs.Stats == nil || bs.StatsMS <= 0 {
			t.Fatalf("healthy backend %s missing live stats (stats_ms=%v)", bs.ID, bs.StatsMS)
		}
	}
}

// BackendIDMust wraps BackendID for tests.
func BackendIDMust(t *testing.T, raw string) string {
	t.Helper()
	id, err := BackendID(raw)
	if err != nil {
		t.Fatal(err)
	}
	return id
}
