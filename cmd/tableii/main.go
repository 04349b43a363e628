// Command tableii regenerates Table II of the paper: per-instance lower
// bound, old and new upper bounds, and the solutions of the exact [6],
// approximate [6], heuristic [11] baselines and JANUS, side by side with
// the values the paper reports.
//
// Usage:
//
//	tableii [-run regexp] [-methods janus,exact,approx,heur] \
//	        [-conflicts N] [-timeout D] [-progress]
//
// The original MCNC instances are replaced by deterministic synthetic
// stand-ins with the same (#in, #pi, δ) profiles; see DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"time"

	"github.com/lattice-tools/janus"
	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/bounds"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/report"
)

func main() {
	var (
		runRe     = flag.String("run", "", "only instances whose name matches this regexp")
		methods   = flag.String("methods", "janus", "comma list: janus,exact,approx,heur,decomp")
		conflicts = flag.Int64("conflicts", 200000, "SAT conflict budget per LM call (0 = unlimited)")
		timeout   = flag.Duration("timeout", 0, "SAT time budget per LM call")
		workers   = flag.Int("workers", 1, "parallel LM solves per search midpoint")
		budget    = flag.Duration("budget", 0, "wall-clock budget per instance for JANUS (0 = unlimited)")
		tracePath = flag.String("trace", "", "write a JSONL span trace of every JANUS run to this file")
		progress  = flag.Bool("progress", false, "print live progress events of every JANUS run to stderr")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address")
	)
	flag.Parse()

	var tracer *janus.Tracer
	if *debugAddr != "" {
		ln, err := janus.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tableii:", err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "tableii: debug server on http://%s/metrics\n", ln.Addr())
	}
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tableii:", err)
			os.Exit(1)
		}
		tracer = janus.NewTracer(tf)
		defer func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "tableii: trace:", err)
			}
			if err := tf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "tableii: trace:", err)
			}
		}()
	}

	var re *regexp.Regexp
	if *runRe != "" {
		var err error
		re, err = regexp.Compile(*runRe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tableii:", err)
			os.Exit(1)
		}
	}
	want := map[string]bool{}
	for _, m := range strings.Split(*methods, ",") {
		want[strings.TrimSpace(m)] = true
	}
	lims := janus.SATLimits{MaxConflicts: *conflicts, Timeout: *timeout}

	fmt.Printf("%-10s %3s %3s %2s | %4s %4s %4s | %-28s | %s\n",
		"instance", "in", "pi", "d", "lb", "oub", "nub", "measured (method sol sec)", "paper (lb oub nub | sols)")
	var sumSize, sumPaper, n int
	var added, rebuilt, iters int64
	var reused, transferred, filtered, pruned int64
	for _, inst := range benchdata.TableII() {
		if re != nil && !re.MatchString(inst.Name) {
			continue
		}
		f, ok := inst.Function()
		if !ok {
			fmt.Printf("%-10s generator missed profile, skipping\n", inst.Name)
			continue
		}
		isop, dual := minimize.AutoDual(f)
		bs := bounds.All(isop, dual, false)
		bsImp := bounds.All(isop, dual, true)
		oub, nub := bs[0].Size(), bsImp[0].Size()
		lb := bounds.LowerBound(isop, dual, nub)

		var cells []string
		if want["janus"] {
			opt := janus.Options{Workers: *workers, Budget: *budget, Tracer: tracer}
			opt.Encode.Limits = lims
			if *progress {
				fmt.Fprintf(os.Stderr, "tableii: %s\n", inst.Name)
				opt.Progress = janus.NewProgressWriter(os.Stderr)
			}
			r, err := janus.Synthesize(f, opt)
			if err == nil {
				cells = append(cells, fmt.Sprintf("janus %dx%d %.1fs",
					r.Grid.M, r.Grid.N, r.Elapsed.Seconds()))
				sumSize += r.Size
				sumPaper += parseSize(inst.Paper["janus"])
				n++
				added += r.ClausesAdded
				rebuilt += r.ClausesRebuilt
				iters += r.CegarIters
				reused += r.SharedReused
				transferred += r.TransferredCEX
				filtered += r.CEXFiltered
				pruned += r.LearntsPruned
				if nub > r.NUB {
					nub = r.NUB // DS may improve on the constructive bounds
				}
			} else {
				cells = append(cells, "janus ERR")
			}
		}
		if want["exact"] {
			r, err := janus.ExactBaseline(f, janus.BaselineOptions{Limits: lims})
			cells = append(cells, cell("exact", r, err))
		}
		if want["approx"] {
			r, err := janus.ApproxBaseline(f, janus.BaselineOptions{Limits: lims})
			cells = append(cells, cell("approx", r, err))
		}
		if want["heur"] {
			r, err := janus.HeuristicBaseline(f, janus.BaselineOptions{Limits: lims})
			cells = append(cells, cell("heur", r, err))
		}
		if want["decomp"] {
			r, err := janus.DecomposeBaseline(f, janus.BaselineOptions{Limits: lims})
			cells = append(cells, cell("decomp", r, err))
		}

		fmt.Printf("%-10s %3d %3d %2d | %4d %4d %4d | %-28s | %d %d %d | j=%s e=%s a=%s h=%s 9=%s\n",
			inst.Name, inst.Inputs, inst.PI, inst.Degree,
			lb, oub, nub, strings.Join(cells, " "),
			inst.PaperLB, inst.PaperOUB, inst.PaperNUB,
			inst.Paper["janus"], inst.Paper["exact"], inst.Paper["approx"],
			inst.Paper["p11"], inst.Paper["p9"])
	}
	if n > 0 {
		fmt.Printf("\nJANUS average switches: measured %.1f vs paper %.1f over %d instances\n",
			float64(sumSize)/float64(n), float64(sumPaper)/float64(n), n)
		fmt.Printf("SAT effort: %s\n", report.Effort(added, rebuilt, iters))
		if iters > 0 {
			fmt.Printf("shared solver: %d solver reuses  %d cex clauses transferred  %d cex filtered  %d learnts pruned\n",
				reused, transferred, filtered, pruned)
		}
		// The rest of the footer reads the process-wide metrics registry,
		// the same data /metrics and expvar serve.
		snap := janus.Metrics()
		rate := func(cache string) string {
			return report.Rate(snap.Get("janus_memo_"+cache+"_hits"),
				snap.Get("janus_memo_"+cache+"_misses"))
		}
		fmt.Printf("memo hit rates: paths %s  tables %s  covers %s\n",
			rate("paths"), rate("tables"), rate("covers"))
		phaseNS := func(phase string) time.Duration {
			return time.Duration(snap.Get("janus_core_phase_" + phase + "_ns_total"))
		}
		fmt.Printf("phase wall-clock: minimize %v  bounds %v  ds %v  search %v\n",
			phaseNS("minimize").Round(10*time.Microsecond),
			phaseNS("bounds").Round(10*time.Microsecond),
			phaseNS("ds").Round(10*time.Microsecond),
			phaseNS("search").Round(10*time.Microsecond))
		fmt.Printf("solver: %s conflicts  %s propagations  %s restarts over %s solves\n",
			report.Count(snap.Get("janus_sat_conflicts_total")),
			report.Count(snap.Get("janus_sat_propagations_total")),
			report.Count(snap.Get("janus_sat_restarts_total")),
			report.Count(snap.Get("janus_sat_solves_total")))
	}
}

func cell(name string, r janus.BaselineResult, err error) string {
	if err != nil || r.Assignment == nil {
		return name + " ERR"
	}
	mark := ""
	if !r.Decided {
		mark = "*" // a SAT budget expired somewhere
	}
	return fmt.Sprintf("%s %dx%d%s %.1fs", name, r.Grid.M, r.Grid.N, mark, r.Elapsed.Seconds())
}

func parseSize(sol string) int {
	var m, n int
	if _, err := fmt.Sscanf(sol, "%dx%d", &m, &n); err != nil {
		return 0
	}
	return m * n
}
