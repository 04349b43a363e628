package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/pla"
	"github.com/lattice-tools/janus/internal/service"
)

const (
	// svcCallers is the number of closed-loop callers (one connection
	// each) of every service workload: the host has two CPUs.
	svcCallers = 2
	// coldPass is the number of fresh functions in one svc-cold pass.
	coldPass = 40
	// warmSet is the size of the svc-warm and front-warm distinct set; it
	// fits janusd's default memory cache (256 entries), so every timed
	// answer is a memory hit.
	warmSet = 160
	// svcSetupReps is how many times a run starts its servers; setup_s
	// reports the median start time (plus the one-off warm fill).
	svcSetupReps = 25
)

// svcWorkload describes one of the service workloads.
type svcWorkload struct {
	front bool // route through a janusfront whose only backend is the daemon
	warm  bool // fill a distinct set in set-up, then cycle it
}

// servers are one run's janusd and optional janusfront; base is where the
// requests go.
type servers struct {
	daemon, front *child
	base          string
}

// up is the set-up time of the servers: from each spawn to its first
// healthy reply. The benchmark's own checks around a start (a free port,
// a fresh process) are not part of it.
func (s *servers) up() time.Duration {
	d := s.daemon.up
	if s.front != nil {
		d += s.front.up
	}
	return d
}

func (s *servers) stop(res *runResult) {
	if s.front != nil {
		res.cpu("janusfront", s.front.stop())
	}
	res.cpu("janusd", s.daemon.stop())
}

// startServers starts a fresh janusd (default flags, its own cache dir)
// and, for front workloads, a janusfront in front of it.
func startServers(cfg config, w svcWorkload, rep int, hc *http.Client) (*servers, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("janusd-%d", rep))
	d, err := startServer("janusd", filepath.Join(cfg.bindir, "janusd"),
		[]string{"-cache-dir", dir}, dir+".log", "janus_service_requests_total", hc)
	if err != nil {
		return nil, err
	}
	s := &servers{daemon: d, base: d.url}
	if w.front {
		f, err := startServer("janusfront", filepath.Join(cfg.bindir, "janusfront"),
			[]string{"-backends", d.url}, filepath.Join(cfg.workdir, fmt.Sprintf("janusfront-%d.log", rep)),
			"janus_front_requests_total", hc)
		if err != nil {
			d.stop()
			return nil, err
		}
		s.front, s.base = f, f.url
	}
	return s, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     svcCallers,
			MaxIdleConnsPerHost: svcCallers,
			DisableCompression:  true,
		},
	}
}

// runService runs svc-cold, svc-warm or front-warm.
func runService(cfg config, w svcWorkload) (*runResult, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var setup []float64
	var srv *servers
	setupClk := newSegClock()
	for rep := 0; rep < svcSetupReps; rep++ {
		s, err := startServers(cfg, w, rep, hc)
		if err != nil {
			return nil, err
		}
		setup = append(setup, s.up().Seconds())
		if rep < svcSetupReps-1 {
			s.stop(newRunResult(nil))
			setupClk.cut()
			continue
		}
		srv = s
	}
	setupClk.end()
	res := newRunResult(setup)
	res.setupClk = setupClk
	defer func() {
		if srv != nil {
			srv.stop(res)
		}
	}()

	// Inputs: svc-cold draws fresh functions pass by pass and never
	// repeats one in a run; the warm workloads cycle one distinct set.
	var warm []target
	cold := newFnGen("cold", cfg.seed)
	var coldPasses [][]target
	var genMu sync.Mutex
	if w.warm {
		g := newFnGen("warm", cfg.seed)
		for i := 0; i < warmSet; i++ {
			warm = append(warm, g.next())
		}
		t := time.Now()
		res.fillClk = newSegClock()
		stop := make(chan struct{})
		cutter := res.fillClk.cutEvery(stop)
		fill(hc, srv.base, warm, res, res.fillClk)
		close(stop)
		<-cutter
		res.fillClk.end()
		res.setupAdd = time.Since(t).Seconds()
	}
	pick := func(pass, i int) target {
		if w.warm {
			return warm[i]
		}
		genMu.Lock()
		defer genMu.Unlock()
		for len(coldPasses) <= pass {
			p := make([]target, coldPass)
			for j := range p {
				p[j] = cold.next()
			}
			coldPasses = append(coldPasses, p)
		}
		return coldPasses[pass][i]
	}
	n := coldPass
	if w.warm {
		n = warmSet
	}

	var (
		sp             spans
		answered       answers
		clientNS       time.Duration
		d0, d1, f0, f1 obsv.Snapshot
		mem0, mem1     memStats
		snapErr        error
	)
	if cfg.trace {
		if d0, snapErr = scrape(hc, srv.daemon.url); snapErr == nil {
			mem0, snapErr = scrapeMem(hc, srv.daemon.url)
		}
		if snapErr == nil && srv.front != nil {
			f0, snapErr = scrape(hc, srv.front.url)
		}
		if snapErr != nil {
			return nil, snapErr
		}
	}
	loop := startLoop()
	clk := newSegClock()
	stopCuts := make(chan struct{})
	cutter := clk.cutEvery(stopCuts)
	var done int
	var doneMu sync.Mutex
	c := newCycler(n, 1, cfg.seed, func() bool {
		doneMu.Lock()
		defer doneMu.Unlock()
		return time.Since(loop.start) >= cfg.duration && done >= minOps
	})
	var wg sync.WaitGroup
	for k := 0; k < svcCallers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pass, i, ok := c.next()
				if !ok {
					return
				}
				t := pick(pass, i)
				seg := clk.enter()
				t0 := time.Now()
				a, err := post(hc, srv.base, t.body)
				lat := time.Since(t0)
				clk.leave()
				var cells [][]switchCell
				size := 0
				if err == nil {
					cells, err = checkAnswer(a, t)
				}
				if err == nil {
					size = a.Result.Size
				}
				res.record(fmt.Sprintf("pass%d/%s", pass, t.id), seg, lat, size, err)
				doneMu.Lock()
				done++
				clientNS += lat
				doneMu.Unlock()
				if cfg.trace && err == nil {
					answered.add(t, cells)
				}
			}
		}()
	}
	wg.Wait()
	close(stopCuts)
	<-cutter
	clk.end()
	res.loopClk = clk
	res.endLoop(loop, c.done())
	var err error
	if res.rssMB, err = peakRSSMB(fmt.Sprint(srv.daemon.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return res, nil
	}

	if d1, snapErr = scrape(hc, srv.daemon.url); snapErr == nil {
		mem1, snapErr = scrapeMem(hc, srv.daemon.url)
	}
	if snapErr == nil && srv.front != nil {
		f1, snapErr = scrape(hc, srv.front.url)
	}
	if snapErr != nil {
		return nil, snapErr
	}
	ops := float64(res.ok)
	l := res.layers
	var dd, fd counterDelta
	dd.add(d0, d1)
	fd.add(f0, f1)
	dd.coreLayers(l, ops)
	l["memo.hit_frac"] = dd.memoHitFrac()
	l["runtime.alloc_mb"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20), ops)
	l["runtime.gc_cycles"] = ratio(float64(mem1.NumGC-mem0.NumGC), ops)
	// The layer spans run after the loop, on every distinct request of the
	// run and its answer: inside the loop they would time the benchmark
	// waiting for a CPU the servers hold, and slow the loop down. Whole
	// passes weigh every distinct request alike, so the mean over them is
	// the mean per op.
	for _, a := range answered.list {
		svcSpans(&sp, a.t, a.cells, !w.warm)
	}
	n = len(answered.list)
	sp.layers(l, float64(n))
	handler := dd.histMeanMS("janus_service_request_ns")
	client := ratio(float64(clientNS)/1e6, float64(done))
	l["service.handler_ms"] = handler
	l["service.queue_wait_ms"] = ratio(float64(dd.hsum["janus_service_queue_wait_ns"])/1e6, ops)
	l["service.solve_ms"] = ratio(float64(dd.hsum["janus_service_solve_ns"])/1e6, ops)
	hits := dd.get("janus_service_cache_mem_hits") + dd.get("janus_service_cache_disk_hits")
	l["service.hit_frac"] = ratio(hits, hits+dd.get("janus_service_cache_misses"))
	l["service.coalesced"] = dd.get("janus_service_coalesced_total")
	l["service.shed"] = dd.get("janus_service_queue_full_total")
	if w.front {
		l["front.proxy_ms"] = fd.histMeanMS("janus_front_proxy_ns")
		l["front.hop_ms"] = client - handler
		l["front.failovers"] = fd.get("janus_front_failovers_total")
		l["front.proxy_errors"] = fd.get("janus_front_proxy_errors_total")
	} else {
		l["service.http_ms"] = client - handler
	}
	l["bench.overhead_frac"] = ratio(float64(sp.total())/float64(n), float64(clientNS)/float64(done))
	res.notef("client mean %.4f ms, handler mean %.4f ms over %d requests", client, handler, done)
	return res, nil
}

// answers keeps the first verified answer of every distinct request.
type answers struct {
	mu   sync.Mutex
	seen map[string]bool
	list []verified
}

type verified struct {
	t     target
	cells [][]switchCell
}

func (a *answers) add(t target, cells [][]switchCell) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.seen == nil {
		a.seen = map[string]bool{}
	}
	if !a.seen[t.id] {
		a.seen[t.id] = true
		a.list = append(a.list, verified{t, cells})
	}
}

// fill solves the warm distinct set once, with the timed loop's callers,
// checking every answer.
func fill(hc *http.Client, base string, set []target, res *runResult, clk *segClock) {
	var wg sync.WaitGroup
	next := make(chan target)
	for k := 0; k < svcCallers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				clk.enter()
				a, err := post(hc, base, t.body)
				clk.leave()
				if err == nil {
					_, err = checkAnswer(a, t)
				}
				res.count("fill/"+t.id, err)
			}
		}()
	}
	for _, t := range set {
		next <- t
	}
	close(next)
	wg.Wait()
}

// svcSpans times the layers' public calls on one request's inputs: the
// PLA parser and the service's canonical key on the request body, the
// lattice verifier on the answer and, on svc-cold, the minimizer and the
// bounds on the requested cover.
func svcSpans(sp *spans, t target, cells [][]switchCell, cold bool) {
	t0 := time.Now()
	f, err := pla.ParseString(t.pla)
	sp.add("pla.parse_ms", time.Since(t0))
	if err != nil {
		return
	}
	t0 = time.Now()
	service.FnKeyOf(service.Request{PLA: t.pla, MaxConflicts: maxConflicts}) //nolint:errcheck // timed only; janusd accepted this request
	sp.add("service.canon_ms", time.Since(t0))
	cover := f.Covers[0]
	a := lattice.NewAssignment(lattice.Grid{M: len(cells), N: len(cells[0])})
	for r, row := range cells {
		for c, s := range row {
			e := lattice.Entry{Kind: lattice.Const0, Var: s.v}
			switch s.kind {
			case '1':
				e.Kind = lattice.Const1
			case '+':
				e.Kind = lattice.PosVar
			case '-':
				e.Kind = lattice.NegVar
			}
			a.Set(r, c, e)
		}
	}
	t0 = time.Now()
	a.Realizes(cover)
	sp.add("lattice.verify_ms", time.Since(t0))
	if cold {
		coverSpans(sp, cover)
	}
}
