// Command janusfront shards synthesis traffic across N janusd backends
// by consistent (rendezvous) hashing on the budget-free function key,
// so every budget variant and spelling of the same function lands on
// one daemon — where coalescing, the result cache, the budget index,
// and the path memo already do their work per node.
//
// Usage:
//
//	janusfront -backends http://host1:7151,http://host2:7151,...
//	           [-addr :7251] [-health-interval D] [-health-timeout D]
//	           [-fail-after N] [-retries-429 N] [-retry-after-cap D]
//	           [-stats-timeout D] [-debug-addr ADDR] [-log-level LEVEL]
//
// API (the janusd surface, routed):
//
//	POST /v1/synthesize         routed to the function key's owning shard
//	GET  /v1/jobs/{id}          job ids embed their shard ("host:port~jab...")
//	GET  /v1/jobs/{id}/events   SSE / ?wait= long-poll passthrough
//	GET  /v1/jobs/{id}/trace    backend trace stitched under the front's Route/Attempt spans
//	GET  /v1/stats              merged backend stats + front routing block (per-backend deadline)
//	GET  /metrics/prom          fleet Prometheus view: front + every backend, backend-labeled
//	GET  /healthz               503 only when no backend is routable
//	GET  /metrics               janus_front_* metrics
//
// A health poller watches each backend's /healthz; backends are ejected
// after -fail-after consecutive failures (a draining daemon counts as
// failed) and re-admitted on recovery. Keys rerouted by a membership
// change carry an X-Janus-Fill-From hint so the new owner fills its
// cache from the previous owner instead of re-solving.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/lattice-tools/janus"
	"github.com/lattice-tools/janus/internal/obsv"
)

func main() {
	var (
		addr       = flag.String("addr", ":7251", "HTTP listen address")
		backends   = flag.String("backends", "", "comma-separated janusd base URLs (required)")
		healthIvl  = flag.Duration("health-interval", time.Second, "backend /healthz poll period")
		healthTO   = flag.Duration("health-timeout", 2*time.Second, "one health probe's budget")
		failAfter  = flag.Int("fail-after", 2, "consecutive probe failures before ejecting a backend")
		retries429 = flag.Int("retries-429", 2, "Retry-After-paced retries on a backpressured backend before passing the 429 through")
		retryCap   = flag.Duration("retry-after-cap", 2*time.Second, "cap on one Retry-After pause")
		statsTO    = flag.Duration("stats-timeout", 2*time.Second, "per-backend budget of a merged /v1/stats or /metrics/prom fan-out")
		debugAddr  = flag.String("debug-addr", "", "extra listener for /metrics and /debug/pprof")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()

	log := obsv.NewLogger(os.Stderr, parseLevel(*logLevel))
	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	f, err := janus.NewFront(janus.FrontConfig{
		Backends:       urls,
		HealthInterval: *healthIvl,
		HealthTimeout:  *healthTO,
		FailAfter:      *failAfter,
		Retry429:       *retries429,
		RetryAfterCap:  *retryCap,
		StatsTimeout:   *statsTO,
		Logger:         log,
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
	httpSrv := &http.Server{Handler: f.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Info("serving", "addr", ln.Addr().String(), "backends", len(urls))

	sigCtx, stop := signal.NotifyContext(context.Background(),
		syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-sigCtx.Done():
		stop()
		log.Info("shutting down")
	case err := <-errc:
		fatal(err)
	}

	// The front holds no job state — shutdown is just: stop accepting,
	// let in-flight proxied requests finish briefly, stop the poller.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx) //nolint:errcheck // in-flight synthesis waits belong to the backends
	f.Close()
	log.Info("stopped")
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "janusfront:", err)
	os.Exit(1)
}
