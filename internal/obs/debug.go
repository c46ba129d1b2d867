package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// DebugServer is a running debug/telemetry HTTP server started by
// ServeDebug. It owns its listener: Close shuts the server down and releases
// the port, so long-running daemons can fold the debug plane into their
// graceful drain instead of leaking the listener for process lifetime.
type DebugServer struct {
	srv  *http.Server
	ln   net.Listener
	addr string

	// extra are scrape-time collectors appended to /metrics after the
	// registry; registration is concurrency-safe so a daemon can add
	// collectors (ingest progress, watchdog quantiles) after the server
	// is already up.
	mu    sync.Mutex
	extra []PromCollector
}

// Addr returns the server's bound address (useful with ":0").
func (d *DebugServer) Addr() string { return d.addr }

// Close shuts the debug server down and closes its listener. Safe to call
// more than once; a nil receiver no-ops so callers can thread an optional
// handle without guards.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}

// RegisterProm adds a scrape-time collector to /metrics. Nil-safe on both
// sides.
func (d *DebugServer) RegisterProm(c PromCollector) {
	if d == nil || c == nil {
		return
	}
	d.mu.Lock()
	d.extra = append(d.extra, c)
	d.mu.Unlock()
}

// collectors snapshots the extra collector list for one scrape.
func (d *DebugServer) collectors() []PromCollector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.extra[:len(d.extra):len(d.extra)]
}

// ServeDebug starts an HTTP debug server on addr exposing the standard Go
// profiling and introspection endpoints for long-running commands:
//
//	/debug/pprof/...   net/http/pprof (CPU, heap, goroutine, ...)
//	/debug/vars        expvar, including the registry under "timeouts"
//	/metrics           Prometheus 0.0.4 text: the registry (class-labeled),
//	                   Go runtime collectors, and any RegisterProm extras
//	/metrics.json      the deterministic snapshot as JSON (the pre-Prometheus
//	                   form, kept for scripts that parse it)
//
// The returned handle reports the bound address (useful with ":0") and shuts
// the server down on Close. The registry is published live — each scrape
// renders fresh values.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	d := &DebugServer{ln: ln, addr: ln.Addr().String()}
	runtimeC := NewRuntimeCollector()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		WritePromText(w, reg, append([]PromCollector{runtimeC}, d.collectors()...)...)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.Snapshot().WriteJSON(w)
	})
	publishExpvar(reg)
	d.srv = &http.Server{Handler: mux}
	go d.srv.Serve(ln)
	return d, nil
}

// publishExpvar exposes the registry under the "timeouts" expvar key.
// expvar.Publish panics on duplicate names, so republishing (tests starting
// several servers) reuses the first registration's closure; the registry it
// reads through sits behind an atomic pointer so concurrent ServeDebug
// calls — and scrapes racing a republish — are safe.
var (
	expvarReg  atomic.Pointer[Registry]
	expvarOnce sync.Once
)

func publishExpvar(reg *Registry) {
	expvarOnce.Do(func() {
		expvar.Publish("timeouts", expvar.Func(func() any {
			r := expvarReg.Load()
			return map[string]Snapshot{
				"metrics":     r.Snapshot(),
				"diagnostics": r.DiagnosticSnapshot(),
			}
		}))
	})
	expvarReg.Store(reg)
}
