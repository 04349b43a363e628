package obsv

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// ServeDebug starts a background HTTP server on addr exposing
//
//	/metrics       JSON snapshot of the registry
//	/metrics/prom  the same registry in Prometheus text format
//	/debug/vars    expvar (the runtime's memstats and cmdline)
//	/debug/pprof/  the standard pprof profiles
//
// It returns the bound listener (addr may be ":0") so callers can report
// or close it; the server runs until the listener is closed. This is the
// long-sweep escape hatch: cmd/tableii -debug-addr lets a multi-hour
// Table II run be profiled and watched without stopping it.
func ServeDebug(addr string, reg *Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: DebugHandler(reg)}
	go srv.Serve(ln) //nolint:errcheck // ends when the listener closes
	return ln, nil
}

// DebugHandler returns the mux ServeDebug installs, for embedding into an
// application's own server.
func DebugHandler(reg *Registry) http.Handler {
	if reg == nil {
		reg = Default
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshot()) //nolint:errcheck // best-effort debug output
	})
	mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		WritePrometheus(w, reg) //nolint:errcheck // best-effort debug output
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
