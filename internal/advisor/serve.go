package advisor

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"timeouts/internal/obs"
)

// Serving lifecycle and overload protection: advisord's availability story.
// A Gate is the admission controller and lifecycle state machine in front of
// the advice routes — bounded in-flight admission with fast 503 +
// Retry-After shedding, plus the recovering/serving/draining states /healthz
// reports — and RunServer wires it to an http.Server hardened with the full
// timeout set and a SIGTERM-style graceful drain: stop accepting, finish
// in-flight requests, hand control back so the caller can write a final
// checkpoint and exit 0.

// GateState is the serving lifecycle state.
type GateState int32

// Lifecycle states, in boot order.
const (
	// GateRecovering: the advisor is loading a checkpoint or running its
	// initial ingest; advice routes shed with 503 + Retry-After while
	// /healthz (outside the gate) reports the state.
	GateRecovering GateState = iota
	// GateServing: normal operation; requests are admitted up to the
	// in-flight limit and shed beyond it.
	GateServing
	// GateDraining: shutdown has begun; every new advice request is shed
	// with Connection: close while in-flight ones finish. It is final: no
	// SetState leaves it.
	GateDraining
)

// String names the state for /healthz.
func (s GateState) String() string {
	switch s {
	case GateRecovering:
		return "recovering"
	case GateServing:
		return "serving"
	case GateDraining:
		return "draining"
	}
	return "unknown"
}

// Gate bounds concurrent advice requests and carries the serving state.
// Admission is a non-blocking semaphore try: a request beyond the in-flight
// limit is shed immediately with 503 + Retry-After rather than queued —
// queueing under overload only converts client timeouts into server memory,
// the very failure mode the paper's advice exists to prevent. The admitted
// path costs one channel op each way, keeping the zero-alloc lookup hot
// path intact.
type Gate struct {
	state      atomic.Int32
	sem        chan struct{}
	retryAfter string

	obsShed     *obs.Counter
	obsDrained  *obs.Counter
	obsNotReady *obs.Counter
	obsInflight *obs.Gauge
}

// NewGate creates a gate admitting at most maxInFlight concurrent requests
// (minimum 1) that tells shed clients to retry after retryAfter (rounded up
// to whole seconds, minimum 1 — the Retry-After header's resolution). The
// gate starts in GateServing; boot sequences that recover and ingest first
// set GateRecovering before exposing the listener.
func NewGate(maxInFlight int, retryAfter time.Duration) *Gate {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	g := &Gate{
		sem:        make(chan struct{}, maxInFlight),
		retryAfter: strconv.FormatInt(secs, 10),
	}
	g.state.Store(int32(GateServing))
	return g
}

// SetObserver registers the gate's metrics on reg; all diagnostic-class.
func (g *Gate) SetObserver(reg *obs.Registry) {
	g.obsShed = reg.DiagCounter("advisor.http.shed")
	g.obsDrained = reg.DiagCounter("advisor.http.drain_rejected")
	g.obsNotReady = reg.DiagCounter("advisor.http.not_ready")
	g.obsInflight = reg.DiagGauge("advisor.http.inflight_hwm")
}

// State returns the current lifecycle state. A nil gate is always serving —
// handlers built without one have no lifecycle.
func (g *Gate) State() GateState {
	if g == nil {
		return GateServing
	}
	return GateState(g.state.Load())
}

// SetState moves the lifecycle state, unless the gate is draining: a boot
// step that finishes after shutdown began must not reopen it. Nil-safe
// no-op.
func (g *Gate) SetState(s GateState) {
	if g == nil {
		return
	}
	for {
		old := g.state.Load()
		if GateState(old) == GateDraining || g.state.CompareAndSwap(old, int32(s)) {
			return
		}
	}
}

// InFlight returns how many requests are currently admitted.
func (g *Gate) InFlight() int {
	if g == nil {
		return 0
	}
	return len(g.sem)
}

// shed answers a rejected request: 503 with Retry-After so well-behaved
// clients back off instead of hammering, and during drain Connection: close
// so keep-alive clients re-resolve to a healthy instance.
func (g *Gate) shed(w http.ResponseWriter, reason string, closing bool) {
	w.Header().Set("Retry-After", g.retryAfter)
	if closing {
		w.Header().Set("Connection", "close")
	}
	http.Error(w, reason, http.StatusServiceUnavailable)
}

// Wrap gates h: draining and recovering states shed everything, then
// admission is a non-blocking semaphore try — full means an immediate 503,
// never a queue. A nil gate returns h unchanged.
func (g *Gate) Wrap(h http.Handler) http.Handler {
	if g == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch GateState(g.state.Load()) {
		case GateDraining:
			g.obsDrained.Inc()
			g.shed(w, "draining", true)
			return
		case GateRecovering:
			g.obsNotReady.Inc()
			g.shed(w, "recovering: advice not ready", false)
			return
		}
		select {
		case g.sem <- struct{}{}:
		default:
			g.obsShed.Inc()
			g.shed(w, "overloaded", false)
			return
		}
		g.obsInflight.Observe(int64(len(g.sem)))
		defer func() { <-g.sem }()
		h.ServeHTTP(w, r)
	})
}

// ServerConfig configures RunServer.
type ServerConfig struct {
	// Listener is the accepting socket (required): callers bind it
	// themselves so tests can use :0 and main can print the bound address
	// before serving.
	Listener net.Listener
	// Handler is the HTTP handler (required), typically NewHandler(...).
	Handler http.Handler
	// Gate, when set, is flipped to GateDraining the moment shutdown
	// begins, so new requests shed while in-flight ones finish.
	Gate *Gate
	// DrainTimeout bounds the graceful drain: in-flight requests get this
	// long to finish before the server closes their connections
	// (default 10s).
	DrainTimeout time.Duration
}

// defaulted returns d, or def when d is zero.
func defaulted(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// RunServer serves cfg.Handler on cfg.Listener until ctx is cancelled, then
// drains gracefully: the gate flips to draining (new requests shed with
// Connection: close), the listener stops accepting, in-flight requests get
// DrainTimeout to finish, and RunServer returns nil on a clean drain. The
// caller then writes its final checkpoint and exits 0 — the SIGTERM
// contract. A non-context server failure (listener torn down, handler
// panic storm) is returned as-is.
func RunServer(ctx context.Context, cfg ServerConfig) error {
	// Every server timeout is set: advisord must never run with unset
	// (infinite) ones, or a single slowloris client pins a connection and
	// enough of them exhaust the listener. WriteTimeout backstops the
	// per-request deadline.
	srv := &http.Server{
		Handler:           cfg.Handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(cfg.Listener) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	cfg.Gate.SetState(GateDraining)
	dctx, cancel := context.WithTimeout(context.Background(), defaulted(cfg.DrainTimeout, 10*time.Second))
	defer cancel()
	err := srv.Shutdown(dctx)
	<-errc // Serve has returned http.ErrServerClosed
	return err
}
