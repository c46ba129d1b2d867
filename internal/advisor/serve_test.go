package advisor

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
)

func TestGateShedsOverLimit(t *testing.T) {
	gate := NewGate(2, 3*time.Second)
	reg := obs.NewRegistry()
	gate.SetObserver(reg)
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	h := gate.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/timeout", nil))
			if w.Code != http.StatusOK {
				t.Errorf("admitted request: %d, want 200", w.Code)
			}
		}()
	}
	<-entered
	<-entered
	if got := gate.InFlight(); got != 2 {
		t.Errorf("InFlight = %d, want 2", got)
	}

	// Third concurrent request: shed immediately, no queueing.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/timeout", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit request: %d, want 503", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	if n := reg.Counter("advisor.http.shed").Value(); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}
	close(release)
	wg.Wait()
	if got := gate.InFlight(); got != 0 {
		t.Errorf("InFlight after release = %d, want 0", got)
	}
}

func TestGateStates(t *testing.T) {
	gate := NewGate(8, time.Second)
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	h := gate.Wrap(ok)
	do := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/timeout", nil))
		return w
	}

	if got := gate.State(); got != GateServing || got.String() != "serving" {
		t.Errorf("initial state = %v (%q)", got, got.String())
	}
	if w := do(); w.Code != http.StatusOK {
		t.Errorf("serving: %d, want 200", w.Code)
	}

	gate.SetState(GateRecovering)
	if w := do(); w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Errorf("recovering: %d, Retry-After %q; want 503 with hint", w.Code, w.Header().Get("Retry-After"))
	}

	gate.SetState(GateDraining)
	w := do()
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining: %d, want 503", w.Code)
	}
	if c := w.Header().Get("Connection"); c != "close" {
		t.Errorf("draining Connection = %q, want \"close\"", c)
	}
	// Draining is final: advisord's boot sets serving once ingest ends,
	// which may be after a signal began the drain.
	gate.SetState(GateServing)
	if got := gate.State(); got != GateDraining {
		t.Errorf("SetState(serving) while draining moved the gate to %v", got)
	}

	// A nil gate is pass-through and always serving.
	var nilGate *Gate
	if nilGate.State() != GateServing {
		t.Error("nil gate not serving")
	}
	w2 := httptest.NewRecorder()
	nilGate.Wrap(ok).ServeHTTP(w2, httptest.NewRequest(http.MethodGet, "/", nil))
	if w2.Code != http.StatusOK {
		t.Errorf("nil gate: %d, want 200", w2.Code)
	}
}

func TestHandlerHealthzStatesAndHeaders(t *testing.T) {
	adv := New()
	now := int64(1_000_000_000)
	adv.SetClock(func() int64 { return atomic.LoadInt64(&now) })
	gate := NewGate(8, time.Second)
	gate.SetState(GateRecovering)
	h := NewHandler(adv, WithGate(gate), WithRequestTimeout(5*time.Second))
	get := func(url string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
		return w
	}
	health := func() healthResponse {
		t.Helper()
		w := get("/healthz")
		if w.Code != http.StatusOK {
			t.Fatalf("/healthz: %d, want 200 always", w.Code)
		}
		var hr healthResponse
		if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
			t.Fatal(err)
		}
		return hr
	}

	// Recovering: health answers (outside the gate) while advice sheds.
	hr := health()
	if hr.OK || hr.State != "recovering" || hr.SnapshotAgeS != -1 {
		t.Errorf("recovering health = %+v", hr)
	}
	if w := get("/timeout?addr=10.0.0.1"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("recovering /timeout: %d, want 503", w.Code)
	}

	st := NewStore()
	st.Add(ipaddr.Addr(0x0a000001), 50*time.Millisecond)
	adv.Publish(st)
	gate.SetState(GateServing)
	atomic.AddInt64(&now, int64(90*time.Second))

	hr = health()
	if !hr.OK || hr.State != "serving" || hr.Epoch != 1 || hr.SnapshotAgeS != 90 {
		t.Errorf("serving health = %+v, want ok, age 90s", hr)
	}

	// Advice responses carry the epoch header and content type.
	w := get("/timeout?addr=10.0.0.1")
	if w.Code != http.StatusOK {
		t.Fatalf("/timeout: %d", w.Code)
	}
	if e := w.Header().Get("X-Advisor-Epoch"); e != "1" {
		t.Errorf("X-Advisor-Epoch = %q, want \"1\"", e)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/timeout Content-Type = %q", ct)
	}
	w = get("/snapshot")
	if e := w.Header().Get("X-Advisor-Epoch"); e != "1" {
		t.Errorf("/snapshot X-Advisor-Epoch = %q, want \"1\"", e)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/snapshot Content-Type = %q", ct)
	}

	gate.SetState(GateDraining)
	hr = health()
	if hr.OK || hr.State != "draining" {
		t.Errorf("draining health = %+v", hr)
	}
}

func TestWithDeadline(t *testing.T) {
	h := withDeadline(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			w.WriteHeader(http.StatusGatewayTimeout)
		case <-time.After(10 * time.Second):
			w.WriteHeader(http.StatusOK)
		}
	}), 20*time.Millisecond)
	w := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/", nil))
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("code = %d, want the deadline to fire", w.Code)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v", elapsed)
	}
}

// TestRunServerGracefulDrain exercises the full SIGTERM contract on a real
// listener: cancellation flips the gate to draining, the in-flight request
// finishes with its 200, new connections are refused, and RunServer returns
// nil — the clean-drain signal main relies on before its final checkpoint.
func TestRunServerGracefulDrain(t *testing.T) {
	gate := NewGate(4, time.Second)
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/slow", gate.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, "done")
	})))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serverDone := make(chan error, 1)
	go func() {
		serverDone <- RunServer(ctx, ServerConfig{
			Listener:     ln,
			Handler:      mux,
			Gate:         gate,
			DrainTimeout: 5 * time.Second,
		})
	}()
	base := "http://" + ln.Addr().String()

	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			reqDone <- err
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "done" {
			reqDone <- fmt.Errorf("in-flight request: %d %q", resp.StatusCode, body)
			return
		}
		reqDone <- nil
	}()
	<-entered

	// Shutdown begins with one request in flight.
	cancel()
	// The gate flips to draining before Shutdown returns; poll briefly since
	// cancellation is asynchronous to this goroutine.
	deadline := time.Now().Add(2 * time.Second)
	for gate.State() != GateDraining && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if gate.State() != GateDraining {
		t.Fatal("gate never flipped to draining")
	}

	// The in-flight request must complete.
	close(release)
	if err := <-reqDone; err != nil {
		t.Fatal(err)
	}
	if err := <-serverDone; err != nil {
		t.Fatalf("RunServer = %v, want nil on clean drain", err)
	}

	// The listener is gone: new connections are refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after drain")
	}
}
