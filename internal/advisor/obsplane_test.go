package advisor

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
)

// obsHandler builds a served advisor with full telemetry wiring: one prefix
// of data, a serving gate, serve metrics on reg, and /metrics mounted.
func obsHandler(t *testing.T, reg *obs.Registry) (*Advisor, *ServeMetrics, http.Handler) {
	t.Helper()
	adv := New()
	adv.SetObserver(reg)
	st := NewStore()
	st.Add(ipaddr.Addr(0x0a000001), 50*time.Millisecond)
	adv.Publish(st)
	m := NewServeMetrics(reg)
	h := NewHandler(adv,
		WithGate(NewGate(64, time.Second)),
		WithServeMetrics(m),
		WithMetrics(obs.PromHandler(reg, adv)))
	return adv, m, h
}

func doGet(h http.Handler, url string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
	return w
}

func TestStatusClass(t *testing.T) {
	cases := map[int]int{200: 0, 204: 0, 301: 1, 400: 2, 404: 2, 500: 3, 503: 3, 100: 0, 700: 3}
	for code, want := range cases {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %d, want %d", code, got, want)
		}
	}
}

// TestServeMetricsRoutesAndClasses drives each route and status class and
// checks the samples land in the right diagnostic histograms — and that the
// deterministic snapshot stays completely empty of them.
func TestServeMetricsRoutesAndClasses(t *testing.T) {
	reg := obs.NewRegistry()
	_, _, h := obsHandler(t, reg)

	if w := doGet(h, "/timeout?addr=10.0.0.1"); w.Code != http.StatusOK {
		t.Fatalf("/timeout: %d", w.Code)
	}
	if w := doGet(h, "/timeout?addr=not-an-ip"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad addr: %d", w.Code)
	}
	if w := doGet(h, "/snapshot"); w.Code != http.StatusOK {
		t.Fatalf("/snapshot: %d", w.Code)
	}
	if w := doGet(h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", w.Code)
	}

	want := map[string]uint64{
		"advisor.http.latency.timeout.2xx":  1,
		"advisor.http.latency.timeout.4xx":  1,
		"advisor.http.latency.snapshot.2xx": 1,
		"advisor.http.latency.healthz.2xx":  1,
		"advisor.http.latency.timeout.5xx":  0,
	}
	for name, n := range want {
		if got := reg.DiagHistogram(name).Count(); got != n {
			t.Errorf("%s count = %d, want %d", name, got, n)
		}
	}
	// Gate sheds are visible too: a draining gate 503 lands in 5xx.
	reg2 := obs.NewRegistry()
	adv2, m2, _ := obsHandler(t, reg2)
	gate := NewGate(64, time.Second)
	gate.SetState(GateDraining)
	h2 := NewHandler(adv2, WithGate(gate), WithServeMetrics(m2))
	if w := doGet(h2, "/timeout?addr=10.0.0.1"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /timeout: %d", w.Code)
	}
	if got := reg2.DiagHistogram("advisor.http.latency.timeout.5xx").Count(); got != 1 {
		t.Errorf("draining shed not measured: 5xx count = %d", got)
	}
	// All serve histograms are diagnostic-class: none may leak into the
	// deterministic snapshot.
	if snap := reg.Snapshot(); len(snap.Histograms) != 0 {
		t.Errorf("deterministic snapshot contains %d serve histograms", len(snap.Histograms))
	}
	// A nil ServeMetrics is pass-through.
	var nilM *ServeMetrics
	okH := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	if w := doGet(nilM.Instrument(routeTimeout, okH), "/x"); w.Code != http.StatusOK {
		t.Errorf("nil ServeMetrics: %d", w.Code)
	}
}

// TestHealthzIngestAndCheckpointFields pins the extended /healthz rendering
// across the three gate states, with and without ingest/checkpoint wiring.
func TestHealthzIngestAndCheckpointFields(t *testing.T) {
	adv := New()
	gate := NewGate(8, time.Second)
	gate.SetState(GateRecovering)
	progress := &IngestProgress{}
	ck := &Checkpointer{Dir: t.TempDir()}
	h := NewHandler(adv, WithGate(gate), WithIngestProgress(progress), WithCheckpointer(ck))
	health := func() healthResponse {
		t.Helper()
		w := doGet(h, "/healthz")
		if w.Code != http.StatusOK {
			t.Fatalf("/healthz: %d", w.Code)
		}
		var hr healthResponse
		if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
			t.Fatal(err)
		}
		return hr
	}

	// Recovering, nothing ingested, nothing checkpointed.
	hr := health()
	if hr.OK || hr.State != "recovering" || hr.IngestRecords != 0 || hr.LastCheckpointAgeS != -1 {
		t.Errorf("recovering health = %+v", hr)
	}

	// Serving with live ingest progress and a checkpoint on disk.
	st := NewStore()
	st.Add(ipaddr.Addr(0x0a000001), 50*time.Millisecond)
	adv.Publish(st)
	gate.SetState(GateServing)
	progress.setRecords(2)
	progress.setBackoff(1500 * time.Millisecond)
	if _, err := ck.Save(st, 1); err != nil {
		t.Fatal(err)
	}
	hr = health()
	if !hr.OK || hr.State != "serving" {
		t.Errorf("serving health = %+v", hr)
	}
	if hr.IngestRecords != 2 || hr.IngestBackoffS != 1.5 {
		t.Errorf("ingest fields = records %d backoff %v", hr.IngestRecords, hr.IngestBackoffS)
	}
	if hr.LastCheckpointAgeS < 0 || hr.LastCheckpointAgeS > 60 {
		t.Errorf("LastCheckpointAgeS = %v, want a small non-negative age", hr.LastCheckpointAgeS)
	}

	// Draining: still answers, still carries the operational fields.
	gate.SetState(GateDraining)
	hr = health()
	if hr.OK || hr.State != "draining" || hr.IngestRecords != 2 {
		t.Errorf("draining health = %+v", hr)
	}

	// A handler with no ingest/checkpoint wiring reports the zero/none forms.
	bare := NewHandler(adv, WithGate(nil))
	w := doGet(bare, "/healthz")
	var hr2 healthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hr2); err != nil {
		t.Fatal(err)
	}
	if hr2.IngestRecords != 0 || hr2.LastCheckpointAgeS != -1 {
		t.Errorf("bare health = %+v, want zero ingest fields and checkpoint age -1", hr2)
	}
}

// TestMetricsScrapeUnderPublishLoad scrapes /metrics while 300 epochs publish
// and advice traffic flows — the race test for the exposition path (run under
// -race by make metrics-check). Every scrape must parse: non-empty, ending in
// a newline, no torn lines.
func TestMetricsScrapeUnderPublishLoad(t *testing.T) {
	reg := obs.NewRegistry()
	adv, _, h := obsHandler(t, reg)

	st := NewStore()
	st.Add(ipaddr.Addr(0x0a000001), 50*time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			st.Add(ipaddr.Addr(0x0a000001+uint32(i%256)), time.Duration(i+1)*time.Millisecond)
			adv.Publish(st)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				w := doGet(h, "/metrics")
				if w.Code != http.StatusOK {
					t.Errorf("/metrics: %d", w.Code)
					return
				}
				body := w.Body.String()
				if len(body) == 0 || !strings.HasSuffix(body, "\n") {
					t.Errorf("torn scrape: %q...", body[:min(64, len(body))])
					return
				}
				doGet(h, "/timeout?addr=10.0.0.1")
			}
		}()
	}
	<-done
	wg.Wait()

	// After the dust settles the scrape carries the current epoch.
	if body := doGet(h, "/metrics").Body.String(); !strings.Contains(body, "advisor_current_epoch 301") {
		t.Errorf("final scrape missing advisor_current_epoch 301")
	}
}

func TestWatchdogSampleAndBreach(t *testing.T) {
	reg := obs.NewRegistry()
	_, m, h := obsHandler(t, reg)

	// No traffic yet: no data, no breach, nothing exported.
	wd := NewWatchdog(m, reg, time.Nanosecond, time.Hour)
	if _, _, ok := wd.Sample(); ok {
		t.Error("Sample with no traffic reported data")
	}
	var buf bytes.Buffer
	pw := obs.NewPromWriter(&buf)
	wd.CollectProm(pw)
	pw.Flush()
	if strings.Contains(buf.String(), "advisor_self_p99_seconds") {
		t.Error("quantiles exported before any data")
	}

	for i := 0; i < 50; i++ {
		doGet(h, "/timeout?addr=10.0.0.1")
	}
	p99, p999, ok := wd.Sample()
	if !ok || p99 <= 0 || p999 < p99 {
		t.Fatalf("Sample = %v, %v, %v", p99, p999, ok)
	}
	// Every request takes longer than 1ns, so the SLO must have breached.
	if wd.Breaches() == 0 {
		t.Error("p99 over a 1ns SLO did not count a breach")
	}
	if got := reg.DiagnosticSnapshot(); func() bool {
		for _, c := range got.Counters {
			if c.Name == "advisor.self.timeout_breach" && c.Value > 0 {
				return false
			}
		}
		return true
	}() {
		t.Error("breach counter missing from diagnostic snapshot")
	}

	buf.Reset()
	pw = obs.NewPromWriter(&buf)
	wd.CollectProm(pw)
	pw.Flush()
	out := buf.String()
	for _, want := range []string{"advisor_self_p99_seconds", "advisor_self_p999_seconds", "advisor_self_slo_seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("watchdog exposition missing %s:\n%s", want, out)
		}
	}

	// A generous SLO never breaches (fresh registry: the breach counter is
	// per-registry, and wd already incremented this one's).
	wd2 := NewWatchdog(m, obs.NewRegistry(), time.Hour, time.Hour)
	wd2.Sample()
	if wd2.Breaches() != 0 {
		t.Error("p99 under a 1h SLO counted a breach")
	}
}

func TestAccessLoggerSampling(t *testing.T) {
	reg := obs.NewRegistry()
	_, m, h := obsHandler(t, reg)
	var buf bytes.Buffer
	m.SetAccessLogger(NewAccessLogger(&buf, 3))

	for i := 0; i < 6; i++ {
		doGet(h, "/timeout?addr=10.0.0.1")
	}
	doGet(h, "/timeout?addr=junk") // request 7: sampled (7 % 3 == 1), a 400

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // ids 1, 4, 7 of 7 requests at 1-in-3
		t.Fatalf("sampled %d lines, want 3:\n%s", len(lines), buf.String())
	}
	type rec struct {
		ID         uint64  `json:"id"`
		Route      string  `json:"route"`
		Method     string  `json:"method"`
		Status     int     `json:"status"`
		Outcome    string  `json:"outcome"`
		DurationMS float64 `json:"duration_ms"`
		Epoch      string  `json:"epoch"`
	}
	var recs []rec
	for _, line := range lines {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("unparseable access log line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	if recs[0].ID != 1 || recs[1].ID != 4 || recs[2].ID != 7 {
		t.Errorf("sampled ids = %d,%d,%d, want 1,4,7", recs[0].ID, recs[1].ID, recs[2].ID)
	}
	if recs[0].Route != "timeout" || recs[0].Status != 200 || recs[0].Outcome != "ok" || recs[0].Epoch != "1" {
		t.Errorf("ok record = %+v", recs[0])
	}
	if recs[2].Status != 400 || recs[2].Outcome != "client_error" {
		t.Errorf("error record = %+v", recs[2])
	}

	// every < 1 logs everything.
	var all bytes.Buffer
	l := NewAccessLogger(&all, 0)
	req := httptest.NewRequest(http.MethodGet, "/timeout?addr=10.0.0.1", nil)
	for i := 0; i < 4; i++ {
		l.record("timeout", req, 503, time.Millisecond, "")
	}
	if n := strings.Count(all.String(), "\n"); n != 4 {
		t.Errorf("unsampled logger wrote %d lines, want 4", n)
	}
	if !strings.Contains(all.String(), `"outcome":"shed"`) {
		t.Error("503 not classified as shed")
	}
}

// TestServeInstrumentedZeroAlloc pins the instrumentation middleware to 0
// allocs/op: the pooled status writer and pre-created histograms mean a
// request pays two clock reads and one atomic add, nothing on the heap.
func TestServeInstrumentedZeroAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewServeMetrics(reg)
	h := m.Instrument(routeTimeout, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	req := httptest.NewRequest(http.MethodGet, "/timeout", nil)
	w := &sinkWriter{}
	if n := testing.AllocsPerRun(1000, func() {
		h.ServeHTTP(w, req)
	}); n != 0 {
		t.Errorf("instrumented serve allocates %v/op, want 0", n)
	}
}

// sinkWriter is a minimal ResponseWriter for alloc pins (httptest's recorder
// allocates per request).
type sinkWriter struct{ h http.Header }

func (w *sinkWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *sinkWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *sinkWriter) WriteHeader(int)             {}

func TestOutcomeOf(t *testing.T) {
	cases := map[int]string{200: "ok", 302: "ok", 400: "client_error", 404: "client_error",
		503: "shed", 500: "error", 502: "error"}
	for code, want := range cases {
		if got := outcomeOf(code); got != want {
			t.Errorf("outcomeOf(%d) = %q, want %q", code, got, want)
		}
	}
}

// TestServeTrafficCannotPerturbDeterministicMetrics is the invariance
// regression for the telemetry plane: two runs whose seed-determined event
// streams are identical but whose serve-plane traffic differs wildly — and a
// sharded run whose deterministic events are split across 8 registries with
// per-shard diagnostic noise — must all render byte-identical deterministic
// snapshot JSON.
func TestServeTrafficCannotPerturbDeterministicMetrics(t *testing.T) {
	deterministic := func(reg *obs.Registry, lo, hi int) {
		for i := lo; i < hi; i++ {
			reg.Counter("probe.sent").Inc()
			reg.Histogram("rtt.all").Observe(time.Duration(i%7+1) * time.Millisecond)
		}
		reg.Gauge("pop.blocks").Observe(512)
	}
	run := func(traffic int) string {
		reg := obs.NewRegistry()
		deterministic(reg, 0, 800)
		adv := New()
		adv.SetObserver(reg)
		st := NewStore()
		st.Add(ipaddr.Addr(0x0a000001), 50*time.Millisecond)
		adv.Publish(st)
		m := NewServeMetrics(reg)
		h := NewHandler(adv, WithGate(NewGate(8, time.Second)), WithServeMetrics(m))
		for i := 0; i < traffic; i++ {
			doGet(h, "/timeout?addr=10.0.0.1")
			doGet(h, "/healthz")
		}
		NewWatchdog(m, reg, time.Nanosecond, time.Hour).Sample()
		var buf bytes.Buffer
		if err := reg.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(1), run(37)
	if a != b {
		t.Errorf("serve traffic perturbed the deterministic snapshot:\n--- 1 req ---\n%s\n--- 37 reqs ---\n%s", a, b)
	}

	// Sharded: the same 800 deterministic events partitioned 8 ways, each
	// shard with different diagnostic noise, merged in descending order
	// (merge is commutative).
	merged := obs.NewRegistry()
	shards := make([]*obs.Registry, 8)
	for s := range shards {
		shards[s] = obs.NewRegistry()
		deterministic(shards[s], s*100, (s+1)*100)
		shards[s].DiagCounter("advisor.queries").Add(uint64(s * 13))
		shards[s].DiagHistogram("advisor.http.latency.timeout.2xx").ObserveN(time.Duration(s+1)*time.Millisecond, uint64(s))
	}
	for s := len(shards) - 1; s >= 0; s-- {
		merged.Merge(shards[s])
	}
	var buf bytes.Buffer
	if err := merged.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	seq := obs.NewRegistry()
	deterministic(seq, 0, 800)
	var seqBuf bytes.Buffer
	if err := seq.Snapshot().WriteJSON(&seqBuf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != seqBuf.String() {
		t.Errorf("8-shard merge with diagnostic noise != sequential:\n--- merged ---\n%s\n--- seq ---\n%s", buf.String(), seqBuf.String())
	}
}
