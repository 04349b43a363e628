// Command perfbench is the repository benchmark. It runs one workload for
// one seed, checks every answer from outside the program, and prints a
// human-readable record followed by one JSON result line: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
//	perfbench --workload paper|svc-cold|svc-warm|front-warm --seed N --seconds S --trace 0|1
//
// run.py builds it, janusd and janusfront into .bench_build/bin and runs
// it; README.md describes the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	bindir   string
	workdir  string // this run's work directory, removed on exit
}

var workloads = map[string]func(config) (*runResult, error){
	"paper":      runPaper,
	"svc-cold":   func(c config) (*runResult, error) { return runService(c, svcWorkload{}) },
	"svc-warm":   func(c config) (*runResult, error) { return runService(c, svcWorkload{warm: true}) },
	"front-warm": func(c config) (*runResult, error) { return runService(c, svcWorkload{warm: true, front: true}) },
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "paper, svc-cold, svc-warm or front-warm")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "how long the timed loop runs (whole passes)")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		bindir   = flag.String("bindir", ".bench_build/bin", "directory holding janusd and janusfront")
		workroot = flag.String("workdir", ".bench_build/run", "parent of the per-run work directory")
		probe    = flag.Bool("gen-probe", false, "internal: time paper input generation and exit")
	)
	flag.Parse()
	if *probe {
		return genProbe()
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper, svc-cold, svc-warm, front-warm), --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, trace: *trace == 1, bindir: *bindir,
		duration: time.Duration(*seconds * float64(time.Second)),
		workdir:  filepath.Join(*workroot, strconv.Itoa(os.Getpid())),
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cleanup := func() {
		killAll()
		os.RemoveAll(cfg.workdir) //nolint:errcheck // best effort; the daemons are gone
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigc
		cleanup()
		os.Exit(128 + int(s.(syscall.Signal)))
	}()
	defer cleanup()

	res, err := wl(cfg)
	if err == nil {
		err = res.report(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
