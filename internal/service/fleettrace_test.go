package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/obsv"
)

// postSynthesize submits one synthesis over HTTP with extra headers and
// returns the decoded response.
func postSynthesize(t *testing.T, url string, req Request, hdr map[string]string) *Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	hres, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status %d", hres.StatusCode)
	}
	var resp Response
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// TestInboundTraceContext: a request carrying X-Janus-Trace roots its
// job trace under the remote span — the Job record is tagged with the
// fleet trace id and process name and carries the advisory
// remote_parent — while staying a valid standalone trace (Parent 0).
func TestInboundTraceContext(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSynthesize(t, ts.URL, fig1Request(), map[string]string{
		obsv.TraceHeader: "t-fleet-x-7",
	})
	if resp.Status != StatusDone || resp.JobID == "" {
		t.Fatalf("synthesis: %+v", resp)
	}
	raw, err := s.JobTrace(resp.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obsv.ValidateTrace(bytes.NewReader(raw)); err != nil {
		t.Fatalf("remote-rooted trace invalid standalone: %v", err)
	}
	recs, err := obsv.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var job *obsv.Record
	for i := range recs {
		if recs[i].TraceID != "t-fleet-x" || recs[i].Proc != "janusd" {
			t.Fatalf("span %q trace tags = %q/%q, want t-fleet-x/janusd",
				recs[i].Span, recs[i].TraceID, recs[i].Proc)
		}
		if recs[i].Span == "Job" {
			job = &recs[i]
		}
	}
	if job == nil {
		t.Fatal("no Job span")
	}
	if job.Parent != 0 || job.RemoteParent != 7 {
		t.Fatalf("Job parent=%d remote_parent=%d, want 0/7", job.Parent, job.RemoteParent)
	}
}

// TestPerTenantSLOStats: two tenants pushing jobs through the scheduler
// each get their own SLO rows (synthesize + first_mapping) in the
// /v1/stats scheduler block, with observations accounted to the right
// tenant.
func TestPerTenantSLOStats(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	s.synth = func(f cube.Cover, opt core.Options) (core.Result, error) {
		return fakeResult(), nil
	}
	for i, tenant := range []string{"bulk", "bulk", "inter"} {
		ctx := ContextWithTenant(context.Background(), tenant)
		// Distinct budgets make distinct cache keys, so every request runs.
		resp, err := s.Synthesize(ctx, Request{PLA: fig1PLA, TimeoutMS: int64(60_000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusDone {
			t.Fatalf("synthesis %d: %+v", i, resp)
		}
	}
	st := s.Stats()
	if st.Scheduler == nil {
		t.Fatal("no scheduler stats")
	}
	byName := map[string]TenantStats{}
	for _, row := range st.Scheduler.Tenants {
		byName[row.Name] = row
	}
	for tenant, want := range map[string]int64{"bulk": 2, "inter": 1} {
		row, ok := byName[tenant]
		if !ok {
			t.Fatalf("tenant %q missing from scheduler stats", tenant)
		}
		if len(row.SLOs) != 2 {
			t.Fatalf("tenant %q has %d SLO rows, want 2 (synthesize + first_mapping)", tenant, len(row.SLOs))
		}
		names := map[string]int64{}
		for _, slo := range row.SLOs {
			names[slo.Name] = slo.Total
		}
		if names["synthesize"] != want || names["first_mapping"] != want {
			t.Fatalf("tenant %q SLO totals = %v, want %d each", tenant, names, want)
		}
	}
	// The burn gauges landed in the default registry under tenant labels.
	snap := obsv.Default.Snapshot()
	if _, ok := snap.Gauges[obsv.LabeledName("janus_service_tenant_slo_synthesize_total", "tenant", "bulk")]; !ok {
		t.Fatal("tenant-labeled SLO gauge not registered")
	}
}
