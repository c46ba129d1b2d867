package advisor

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"timeouts/internal/ipaddr"
)

// adviceResponse is the JSON body of one /timeout answer.
type adviceResponse struct {
	Addr      string  `json:"addr"`
	Prefix    string  `json:"prefix"`
	Capture   float64 `json:"capture"`
	Coverage  float64 `json:"coverage"`
	TimeoutS  float64 `json:"timeout_s"`
	TimeoutNS int64   `json:"timeout_ns"`
	Source    string  `json:"source"`
	Samples   uint64  `json:"samples"`
	Epoch     uint64  `json:"epoch"`
	Stale     bool    `json:"stale"`
}

// healthResponse is the JSON body of /healthz.
type healthResponse struct {
	// OK means "ready to serve advice": state is serving and a snapshot is
	// published. Recovering and draining instances answer 200 with OK=false
	// so load balancers pull them without treating them as crashed.
	OK       bool   `json:"ok"`
	State    string `json:"state"`
	Epoch    uint64 `json:"epoch"`
	Prefixes int    `json:"prefixes"`
	Samples  uint64 `json:"samples"`
	// SnapshotAgeS is the seconds since the last publish (-1 before the
	// first): a serving-but-stalled advisor shows here long before its
	// advice goes quietly stale.
	SnapshotAgeS float64 `json:"snapshot_age_s"`
	// IngestRecords reports the live ingest loop when one is wired
	// (WithIngestProgress): records consumed so far. IngestBackoffS is the
	// source-retry backoff currently in progress (0 when the feed is
	// healthy) — together they answer "is this advisor falling behind its
	// feed" from the same endpoint that answers "is it up".
	IngestRecords  uint64  `json:"ingest_records"`
	IngestBackoffS float64 `json:"ingest_backoff_s"`
	// LastCheckpointAgeS is the seconds since the last durable save (-1
	// when checkpointing is off or none has landed yet).
	LastCheckpointAgeS float64 `json:"last_checkpoint_age_s"`
}

// handlerConfig collects NewHandler options.
type handlerConfig struct {
	gate       *Gate
	reqTimeout time.Duration
	metrics    *ServeMetrics
	metricsH   http.Handler
	progress   *IngestProgress
	ckpt       *Checkpointer
}

// HandlerOption configures NewHandler.
type HandlerOption func(*handlerConfig)

// WithGate places the advice routes (/timeout, /snapshot) behind g: bounded
// in-flight admission with 503 shedding, plus drain/recovering rejection.
// /healthz stays outside the gate — health checks must keep answering
// precisely when the gate is shedding, or operators lose sight of an
// overloaded instance at the worst moment.
func WithGate(g *Gate) HandlerOption {
	return func(c *handlerConfig) { c.gate = g }
}

// WithRequestTimeout bounds each admitted advice request's handling time via
// a context deadline. The lookup path is nanoseconds, so this is a backstop
// against pathological encodes on huge /snapshot responses, not a tuning
// knob; it also caps how long one request can hold an admission slot.
func WithRequestTimeout(d time.Duration) HandlerOption {
	return func(c *handlerConfig) { c.reqTimeout = d }
}

// WithServeMetrics instruments every route with m's per-route × status-class
// latency histograms (and, if m carries an access logger, sampled request
// logging). The instrumentation wraps *outside* the gate, so shed and
// drain rejections are measured like any other response.
func WithServeMetrics(m *ServeMetrics) HandlerOption {
	return func(c *handlerConfig) { c.metrics = m }
}

// WithMetrics mounts h at GET /metrics. Like /healthz it sits outside the
// gate: a scrape must land precisely when the gate is shedding, or the
// overload that most needs diagnosing is the one interval with no data.
func WithMetrics(h http.Handler) HandlerOption {
	return func(c *handlerConfig) { c.metricsH = h }
}

// WithIngestProgress feeds the live ingest loop's progress into /healthz
// (records consumed, active backoff).
func WithIngestProgress(p *IngestProgress) HandlerOption {
	return func(c *handlerConfig) { c.progress = p }
}

// WithCheckpointer lets /healthz report the age of the last durable save.
func WithCheckpointer(ck *Checkpointer) HandlerOption {
	return func(c *handlerConfig) { c.ckpt = ck }
}

// NewHandler wraps an Advisor in the advice HTTP API:
//
//	GET /timeout?addr=X[&capture=p][&coverage=r]  one recommendation
//	GET /healthz                                  liveness + current epoch
//	GET /snapshot                                 full advice snapshot dump
//
// capture and coverage default to 95 (the paper's headline row: a 5 s
// timeout captures 95% of pings from 95% of the population). Bad addresses
// or non-standard levels answer 400; "no data yet" answers 404 — never a
// fabricated 0 s timeout. Handlers read exactly one snapshot per request,
// so a response can never mix epochs; every advice response carries its
// epoch in X-Advisor-Epoch so clients can correlate answers across a
// restart or a publish.
func NewHandler(adv *Advisor, opts ...HandlerOption) http.Handler {
	var cfg handlerConfig
	for _, o := range opts {
		o(&cfg)
	}
	advice := http.NewServeMux()
	advice.HandleFunc("/timeout", func(w http.ResponseWriter, r *http.Request) {
		serveTimeout(adv, w, r)
	})
	advice.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		snap := adv.Current()
		if snap == nil {
			http.Error(w, "no snapshot published yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Advisor-Epoch", strconv.FormatUint(snap.Epoch(), 10))
		snap.WriteJSON(w)
	})
	var adviceH http.Handler = advice
	if cfg.reqTimeout > 0 {
		adviceH = withDeadline(adviceH, cfg.reqTimeout)
	}
	adviceH = cfg.gate.Wrap(adviceH)

	// Instrumentation wraps per outer route (so /timeout and /snapshot get
	// distinct route labels despite sharing the gated inner handler) and
	// outside the gate (so sheds are measured, not invisible).
	mux := http.NewServeMux()
	mux.Handle("/timeout", cfg.metrics.Instrument(routeTimeout, adviceH))
	mux.Handle("/snapshot", cfg.metrics.Instrument(routeSnapshot, adviceH))
	healthH := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		state := cfg.gate.State()
		h := healthResponse{State: state.String(), SnapshotAgeS: -1, LastCheckpointAgeS: -1}
		snap := adv.Current()
		if snap != nil {
			h.Epoch = snap.Epoch()
			h.Prefixes = snap.Prefixes()
			h.Samples = snap.Samples()
		}
		if at := adv.PublishedAt(); at != 0 {
			h.SnapshotAgeS = time.Duration(adv.clockFn()() - at).Seconds()
		}
		h.IngestRecords = cfg.progress.Records()
		h.IngestBackoffS = cfg.progress.Backoff().Seconds()
		if at := cfg.ckpt.LastSaveAt(); at != 0 {
			h.LastCheckpointAgeS = time.Since(time.Unix(0, at)).Seconds()
		}
		h.OK = state == GateServing && snap != nil
		writeJSON(w, http.StatusOK, h)
	})
	mux.Handle("/healthz", cfg.metrics.Instrument(routeHealthz, healthH))
	if cfg.metricsH != nil {
		mux.Handle("/metrics", cfg.metricsH)
	}
	return mux
}

// withDeadline attaches a per-request context deadline to h.
func withDeadline(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// serveTimeout answers one GET /timeout query.
func serveTimeout(adv *Advisor, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	addrStr := q.Get("addr")
	if addrStr == "" {
		http.Error(w, "missing addr parameter", http.StatusBadRequest)
		return
	}
	addr, err := ipaddr.Parse(addrStr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	capture, err := levelParam(q.Get("capture"))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad capture: %v", err), http.StatusBadRequest)
		return
	}
	coverage, err := levelParam(q.Get("coverage"))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad coverage: %v", err), http.StatusBadRequest)
		return
	}
	adv2, err := adv.Lookup(addr, capture, coverage)
	switch err {
	case nil:
	case ErrBadLevel:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case ErrNoData:
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-Advisor-Epoch", strconv.FormatUint(adv2.Epoch, 10))
	writeJSON(w, http.StatusOK, adviceResponse{
		Addr:      addrStr,
		Prefix:    addr.Prefix().String(),
		Capture:   capture,
		Coverage:  coverage,
		TimeoutS:  adv2.Timeout.Seconds(),
		TimeoutNS: int64(adv2.Timeout),
		Source:    adv2.Source.String(),
		Samples:   adv2.Samples,
		Epoch:     adv2.Epoch,
		Stale:     adv2.Stale,
	})
}

// levelParam parses a percentile query parameter, defaulting to 95.
func levelParam(s string) (float64, error) {
	if s == "" {
		return 95, nil
	}
	return strconv.ParseFloat(s, 64)
}

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
