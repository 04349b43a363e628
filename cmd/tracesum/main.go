// Command tracesum aggregates a JSONL span trace produced by the -trace
// flag of janus/tableii/tableiii/lm — or fetched from janusd's
// GET /v1/jobs/{id}/trace — into per-phase and per-candidate summary
// tables. Service traces (even several concatenated) additionally get a
// per-request outlier table keyed by the Job root spans: request id,
// outcome, queue wait, and total duration, slowest first.
//
// Stitched fleet traces (the front's GET /v1/jobs/{id}/trace, spans from
// more than one process) additionally get a per-hop table: spans and
// wall-clock per process, plus the handoff gap where a span's parent
// lives in another process. Hop durations come from each process's own
// monotonic dur_ns, never from cross-process timestamp arithmetic;
// handoff gaps are the one cross-clock number, so negative gaps (clock
// skew between hosts) are clamped to zero and counted in the skew
// column instead of poisoning the mean.
//
// Usage:
//
//	tracesum [-validate] [-top N] [-by-hop] [trace.jsonl]
//
// Reads standard input when no file is given. The trace is always checked
// against the span schema first; with -validate the command stops after
// the check and prints the span count (non-zero exit on a bad trace),
// which is what the CI trace job runs. -by-hop forces the per-hop table
// even for single-process traces.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/report"
)

func main() {
	validate := flag.Bool("validate", false, "only validate the trace against the span schema")
	top := flag.Int("top", 10, "rows in the per-request outlier table (service traces)")
	byHopFlag := flag.Bool("by-hop", false, "force the per-hop table (automatic for multi-process traces)")
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	recs, err := obsv.ReadTrace(in)
	if err != nil {
		fatal(err)
	}
	if err := obsv.ValidateRecords(recs); err != nil {
		fatal(err)
	}
	if *validate {
		fmt.Printf("trace OK: %d spans\n", len(recs))
		return
	}

	if byHop(recs, *byHopFlag) {
		fmt.Println()
	}
	if byRequest(recs, *top) {
		fmt.Println()
	}
	byName(recs)
	fmt.Println()
	byCandidate(recs)
}

// byHop prints one row per process in a stitched fleet trace: span
// count, wall-clock accumulated there (from each process's own
// monotonic dur_ns), and the cross-process handoff — for every span
// whose parent lives in another hop, the gap between the parent's start
// and the span's start on their respective clocks. That difference is
// the only cross-clock arithmetic in the tool: when skew makes it
// negative the gap counts as zero and lands in the skewed column.
// Prints nothing (returns false) for single-process traces unless
// forced.
func byHop(recs []obsv.Record, force bool) bool {
	procOf := func(r obsv.Record) string {
		if r.Proc == "" {
			return "local"
		}
		return r.Proc
	}
	type agg struct {
		spans     int64
		durNS     int64
		handoffs  int64
		handoffNS int64
		skewed    int64
	}
	byID := make(map[uint64]obsv.Record, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	hops := map[string]*agg{}
	var order []string
	for _, r := range recs {
		p := procOf(r)
		a := hops[p]
		if a == nil {
			a = &agg{}
			hops[p] = a
			order = append(order, p)
		}
		a.spans++
		a.durNS += r.DurNS
		if parent, ok := byID[r.Parent]; ok && procOf(parent) != p {
			a.handoffs++
			if gap := r.Start.Sub(parent.Start); gap > 0 {
				a.handoffNS += int64(gap)
			} else {
				a.skewed++
			}
		}
	}
	if len(hops) < 2 && !force {
		return false
	}
	sort.Strings(order)
	t := report.NewTable("hop", "spans", "total", "handoffs", "handoff mean", "skewed")
	for _, p := range order {
		a := hops[p]
		mean := "-"
		if n := a.handoffs - a.skewed; n > 0 {
			mean = dur(a.handoffNS / n)
		}
		t.Add(p, fmt.Sprint(a.spans), dur(a.durNS),
			fmt.Sprint(a.handoffs), mean, fmt.Sprint(a.skewed))
	}
	fmt.Print(t.String())
	return true
}

// byRequest prints one row per Job root span — service traces carry one
// per request — slowest first, capped at top rows. Returns false when
// the trace has no Job spans (an engine-side trace).
func byRequest(recs []obsv.Record, top int) bool {
	var jobs []obsv.Record
	for _, r := range recs {
		if r.Span == "Job" {
			jobs = append(jobs, r)
		}
	}
	if len(jobs) == 0 {
		return false
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].DurNS > jobs[j].DurNS })
	if top > 0 && len(jobs) > top {
		jobs = jobs[:top]
	}
	attr := func(r obsv.Record, key string) string {
		if v, ok := r.Attrs[key].(string); ok {
			return v
		}
		return "-"
	}
	t := report.NewTable("request", "job", "outcome", "queue wait", "total")
	for _, j := range jobs {
		t.Add(attr(j, "request_id"), attr(j, "job_id"), attr(j, "outcome"),
			dur(attrInt(j, "queue_wait_ns")), dur(j.DurNS))
	}
	fmt.Print(t.String())
	return true
}

// byName prints one row per span name: how often the pipeline entered that
// phase and how much wall-clock it accumulated there.
func byName(recs []obsv.Record) {
	type agg struct {
		n     int64
		durNS int64
	}
	names := map[string]*agg{}
	for _, r := range recs {
		a := names[r.Span]
		if a == nil {
			a = &agg{}
			names[r.Span] = a
		}
		a.n++
		a.durNS += r.DurNS
	}
	order := make([]string, 0, len(names))
	for n := range names {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool {
		return names[order[i]].durNS > names[order[j]].durNS
	})

	t := report.NewTable("span", "count", "total", "mean")
	for _, n := range order {
		a := names[n]
		t.Add(n, fmt.Sprint(a.n),
			dur(a.durNS), dur(a.durNS/a.n))
	}
	fmt.Print(t.String())
}

// byCandidate prints one row per (grid, orientation, engine) LM attempt
// group: outcomes, CEGAR iterations, clause volume, and the SAT conflicts
// its SatSolve descendants report. Speculative attempts the search threw
// away (Candidate spans with speculative=discarded) stay out of the rows
// and are summed on a line of their own.
func byCandidate(recs []obsv.Record) {
	byID := make(map[uint64]obsv.Record, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	// candOf walks ancestors to the enclosing Candidate span, if any.
	candOf := func(r obsv.Record) (obsv.Record, bool) {
		for p := r.Parent; p != 0; {
			pr, ok := byID[p]
			if !ok {
				return obsv.Record{}, false
			}
			if pr.Span == "Candidate" {
				return pr, true
			}
			p = pr.Parent
		}
		return obsv.Record{}, false
	}

	type agg struct {
		key       string
		n         int64
		sat       int64
		unsat     int64
		other     int64
		iters     int64
		clauses   int64
		conflicts int64
		durNS     int64
	}
	groups := map[string]*agg{}
	discarded := &agg{key: "discarded"}
	group := func(r obsv.Record) *agg {
		if r.Attrs["speculative"] == "discarded" {
			return discarded
		}
		key := fmt.Sprintf("%v %v %v",
			r.Attrs["grid"], r.Attrs["orient"], r.Attrs["engine"])
		a := groups[key]
		if a == nil {
			a = &agg{key: key}
			groups[key] = a
		}
		return a
	}
	for _, r := range recs {
		switch r.Span {
		case "Candidate":
			a := group(r)
			a.n++
			a.durNS += r.DurNS
			a.iters += attrInt(r, "cegar_iters")
			a.clauses += attrInt(r, "clauses_added")
			switch r.Attrs["status"] {
			case "SAT":
				a.sat++
			case "UNSAT":
				a.unsat++
			default:
				a.other++
			}
		case "SatSolve":
			if cand, ok := candOf(r); ok {
				group(cand).conflicts += attrInt(r, "conflicts")
			}
		}
	}
	if len(groups) == 0 && discarded.n == 0 {
		fmt.Println("no Candidate spans in trace")
		return
	}
	order := make([]*agg, 0, len(groups))
	for _, a := range groups {
		order = append(order, a)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].durNS > order[j].durNS })

	t := report.NewTable("candidate", "n", "sat", "unsat", "?", "iters", "clauses", "conflicts", "total")
	for _, a := range order {
		t.Add(a.key, fmt.Sprint(a.n), fmt.Sprint(a.sat), fmt.Sprint(a.unsat),
			fmt.Sprint(a.other), fmt.Sprint(a.iters),
			report.Count(a.clauses), report.Count(a.conflicts), dur(a.durNS))
	}
	fmt.Print(t.String())
	if discarded.n > 0 {
		fmt.Printf("discarded speculative attempts: %d, %d iters, %s conflicts, %s\n",
			discarded.n, discarded.iters, report.Count(discarded.conflicts), dur(discarded.durNS))
	}
}

// attrInt reads a numeric attribute; JSON decoding hands ints back as
// float64.
func attrInt(r obsv.Record, key string) int64 {
	switch v := r.Attrs[key].(type) {
	case float64:
		return int64(v)
	case int64:
		return v
	}
	return 0
}

func dur(ns int64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracesum:", err)
	os.Exit(1)
}
