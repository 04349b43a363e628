// Command janusd serves JANUS synthesis over HTTP: a bounded job queue
// with request coalescing in front of the synthesis engine, plus a
// persistent result/path cache so repeated questions are answered
// without re-searching.
//
// Usage:
//
//	janusd [-addr :7151] [-workers N] [-queue N] [-cache-dir DIR]
//	       [-cache-entries N] [-cache-bytes N] [-mem-entries N]
//	       [-default-timeout D] [-max-timeout D]
//	       [-drain-timeout D] [-debug-addr ADDR] [-log-level LEVEL]
//	       [-peers URL,URL,...] [-tenants SPEC,SPEC,...]
//	       [-tenant-weight N] [-tenant-queue-share N] [-tenant-inflight N]
//
// API:
//
//	POST /v1/synthesize         {"pla": ".i 4\n.o 1\n1111 1\n0000 1\n.e"}
//	POST /v1/synthesize/batch   {"functions": [{"pla": …}, …]} — one lattice via JANUS-MF
//	GET  /v1/jobs/{id}          poll an async or timed-out job (live progress inline)
//	GET  /v1/jobs/{id}/events   stream progress events (SSE; ?wait= long-polls)
//	GET  /v1/jobs/{id}/trace    a finished job's span trace (JSONL)
//	GET  /v1/stats              queue health + SLO burn rates
//	GET  /v1/cache/{fnKey}      budget-compatible cached answer (peer cache fill)
//	GET  /healthz               queue health (503 while draining)
//	GET  /debug/flightrecorder  recent request summaries
//	GET  /metrics               process-wide janus_* metrics
//
// Logs are JSON lines on stderr (one access line per request, lifecycle
// lines for jobs and the daemon itself). SIGQUIT dumps the flight
// recorder to stderr and keeps running.
//
// SIGINT/SIGTERM starts a graceful shutdown: admission stops, accepted
// jobs finish (bounded by -drain-timeout), and the memo path snapshot is
// persisted to the cache directory. The HTTP listener keeps answering —
// /healthz reports 503 — until the drain completes, so front tiers can
// see the daemon leaving before its socket does. A second signal aborts
// the drain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/lattice-tools/janus"
	"github.com/lattice-tools/janus/internal/obsv"
)

func main() {
	var (
		addr       = flag.String("addr", ":7151", "HTTP listen address")
		workers    = flag.Int("workers", 2, "concurrent synthesis jobs")
		queue      = flag.Int("queue", 64, "accepted-job backlog before 429")
		cacheDir   = flag.String("cache-dir", "", "persistent cache directory (empty = memory only)")
		cacheEnts  = flag.Int("cache-entries", 4096, "max results kept on disk")
		cacheBytes = flag.Int64("cache-bytes", 64<<20, "max bytes of results kept on disk")
		memEnts    = flag.Int("mem-entries", 256, "max results kept in memory")
		defTimeout = flag.Duration("default-timeout", 5*time.Minute, "budget for requests without timeout_ms")
		maxTimeout = flag.Duration("max-timeout", time.Hour, "cap on any request budget")
		drain      = flag.Duration("drain-timeout", 2*time.Minute, "graceful shutdown budget")
		debugAddr  = flag.String("debug-addr", "", "extra listener for /metrics and /debug/pprof")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")
		peers      = flag.String("peers", "", "comma-separated janusd base URLs allowed as peer cache-fill sources (empty disables X-Janus-Fill-From)")
		tenants    = flag.String("tenants", "", "per-tenant scheduling config: name:weight[:queueshare[:inflight]],... (X-Janus-Tenant header selects the tenant)")
		tenWeight  = flag.Int("tenant-weight", 1, "default DRR weight for tenants not named in -tenants")
		tenShare   = flag.Int("tenant-queue-share", 0, "default per-tenant queue share (0 = the global -queue)")
		tenFlight  = flag.Int("tenant-inflight", 0, "default per-tenant in-flight cap (0 = unlimited)")
	)
	flag.Parse()

	log := obsv.NewLogger(os.Stderr, parseLevel(*logLevel))

	tenantCfg, err := parseTenants(*tenants)
	if err != nil {
		fatal(err)
	}

	srv, err := janus.NewServer(janus.ServiceConfig{
		Workers: *workers, QueueDepth: *queue,
		MemEntries: *memEnts, CacheDir: *cacheDir,
		DiskEntries: *cacheEnts, DiskBytes: *cacheBytes,
		DefaultTimeout: *defTimeout, MaxTimeout: *maxTimeout,
		Peers:   splitList(*peers),
		Tenants: tenantCfg,
		TenantDefaults: janus.TenantConfig{
			Weight: *tenWeight, QueueShare: *tenShare, MaxInFlight: *tenFlight,
		},
		Logger: log,
	})
	if err != nil {
		fatal(err)
	}

	if *debugAddr != "" {
		dln, err := janus.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		defer dln.Close()
		log.Info("debug server up", "addr", dln.Addr().String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Info("serving", "addr", ln.Addr().String(),
		"workers", *workers, "queue", *queue)

	// SIGQUIT: dump the flight recorder without dying, the classic
	// "what has this daemon been doing" lever.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			dumpFlight(srv)
		}
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(),
		syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-sigCtx.Done():
		stop() // a second signal kills the process the default way
		log.Info("draining")
	case err := <-errc:
		fatal(err)
	}

	// Drain the service FIRST, with the listener still up: load
	// balancers keep getting 503s from /healthz while accepted jobs
	// finish, instead of connection refused. Only then close the socket.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	httpSrv.Shutdown(ctx) //nolint:errcheck // the service drain above is the one that matters
	if drainErr != nil {
		log.Error("drain failed", "err", drainErr.Error())
		os.Exit(1)
	}
	log.Info("drained")
}

// dumpFlight writes the flight recorder to stderr as one JSON document.
func dumpFlight(srv *janus.Server) {
	d := srv.Flight()
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	fmt.Fprintln(os.Stderr, "janusd: flight recorder dump:")
	enc.Encode(d) //nolint:errcheck // best-effort debug output
}

func parseLevel(s string) slog.Level {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// parseTenants reads the -tenants flag: comma-separated
// name:weight[:queueshare[:inflight]] specs, zero/omitted fields meaning
// "the default". ("bulk:1:8,interactive:4" gives interactive 4× the
// dispatch weight and caps bulk's backlog at 8 queued jobs.)
func parseTenants(s string) (map[string]janus.TenantConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]janus.TenantConfig)
	for _, spec := range splitList(s) {
		parts := strings.Split(spec, ":")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return nil, fmt.Errorf("-tenants: empty tenant name in %q", spec)
		}
		var cfg janus.TenantConfig
		for i, p := range parts[1:] {
			if i > 2 {
				return nil, fmt.Errorf("-tenants: too many fields in %q", spec)
			}
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 0 {
				return nil, fmt.Errorf("-tenants: bad value %q in %q", p, spec)
			}
			switch i {
			case 0:
				cfg.Weight = v
			case 1:
				cfg.QueueShare = v
			case 2:
				cfg.MaxInFlight = v
			}
		}
		out[name] = cfg
	}
	return out, nil
}

// splitList parses a comma-separated flag into its non-empty elements.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "janusd:", err)
	os.Exit(1)
}
