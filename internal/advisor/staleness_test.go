package advisor

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
)

func TestLookupStalenessTTL(t *testing.T) {
	oldAddr := ipaddr.Addr(0x0a000001)   // sampled early
	freshAddr := ipaddr.Addr(0x0a000101) // sampled late

	var now atomic.Int64
	now.Store(int64(1 * time.Hour))
	clock := now.Load
	st := NewStore()
	st.SetClock(clock)
	for i := 0; i < 5; i++ {
		st.Add(oldAddr, 20*time.Millisecond)
	}
	now.Store(int64(3 * time.Hour))
	for i := 0; i < 5; i++ {
		st.Add(freshAddr, 200*time.Millisecond)
	}

	adv := New()
	adv.SetClock(clock)
	adv.SetTTL(1 * time.Hour)
	adv.Publish(st)
	reg := obs.NewRegistry()
	adv.SetObserver(reg)

	// At 2h the old prefix (stamped 1h) is exactly at its TTL, not past it:
	// prefix answers, not stale.
	now.Store(int64(2 * time.Hour))
	adv1, err := adv.Lookup(oldAddr, 95, 95)
	if err != nil || adv1.Source != SourcePrefix || adv1.Stale {
		t.Fatalf("within TTL: %+v, %v; want fresh prefix advice", adv1, err)
	}

	// At 3h30 the old prefix (stamped 1h) is past the 1h TTL: the lookup
	// degrades to the population fallback and says so; the fresh prefix
	// still answers from its own data.
	now.Store(int64(3*time.Hour + 30*time.Minute))
	adv1, err = adv.Lookup(oldAddr, 95, 95)
	if err != nil {
		t.Fatal(err)
	}
	if adv1.Source != SourcePopulation || !adv1.Stale {
		t.Errorf("past TTL: %+v, want stale population fallback", adv1)
	}
	adv2, err := adv.Lookup(freshAddr, 95, 95)
	if err != nil || adv2.Source != SourcePrefix || adv2.Stale {
		t.Errorf("fresh prefix: %+v, %v; want non-stale prefix advice", adv2, err)
	}
	// A prefix with no data at all is a plain fallback, not a stale one.
	adv3, err := adv.Lookup(ipaddr.Addr(0xc0a80001), 95, 95)
	if err != nil || adv3.Source != SourcePopulation || adv3.Stale {
		t.Errorf("unknown prefix: %+v, %v; want non-stale fallback", adv3, err)
	}
	if got := reg.Counter("advisor.stale_lookups").Value(); got != 1 {
		t.Errorf("stale_lookups = %d, want 1", got)
	}

	// Zero TTL (the default) disables staleness entirely.
	adv0 := New()
	adv0.SetClock(clock)
	adv0.Publish(st)
	now.Store(int64(1000 * time.Hour))
	if a, err := adv0.Lookup(oldAddr, 95, 95); err != nil || a.Source != SourcePrefix || a.Stale {
		t.Errorf("no TTL: %+v, %v; want prefix advice regardless of age", a, err)
	}
}

// TestStalenessSurvivesCheckpoint proves the freshness stamps ride the
// checkpoint: a recovered store keeps per-prefix ages, so TTL degradation
// behaves identically before and after a restart.
func TestStalenessSurvivesCheckpoint(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(1 * time.Hour))
	st := NewStore()
	st.SetClock(now.Load)
	st.Add(0x0a000001, 20*time.Millisecond)
	now.Store(int64(5 * time.Hour))
	st.Add(0x0a000101, 30*time.Millisecond)

	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, st, 3); err != nil {
		t.Fatal(err)
	}
	st2, epoch, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	adv := New()
	adv.SetClock(now.Load)
	adv.SetTTL(2 * time.Hour)
	adv.Restore(st2, epoch)

	now.Store(int64(5*time.Hour + time.Minute))
	if a, _ := adv.Lookup(0x0a000001, 95, 95); !a.Stale {
		t.Errorf("recovered old prefix: %+v, want stale", a)
	}
	if a, _ := adv.Lookup(0x0a000101, 95, 95); a.Stale || a.Source != SourcePrefix {
		t.Errorf("recovered fresh prefix: %+v, want fresh", a)
	}
}

func TestHTTPStaleMarker(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(1 * time.Hour))
	st := NewStore()
	st.SetClock(now.Load)
	st.Add(0x0a000001, 20*time.Millisecond)

	adv := New()
	adv.SetClock(now.Load)
	adv.SetTTL(30 * time.Minute)
	adv.Publish(st)
	h := NewHandler(adv)

	get := func() adviceResponse {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/timeout?addr=10.0.0.1", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("/timeout: %d", w.Code)
		}
		var resp adviceResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := get(); resp.Stale || resp.Source != "prefix" {
		t.Errorf("fresh response = %+v", resp)
	}
	now.Store(int64(2 * time.Hour))
	if resp := get(); !resp.Stale || resp.Source != "population" {
		t.Errorf("stale response = %+v, want stale population fallback", resp)
	}
}

// TestLookupTTLZeroAlloc extends the zero-alloc pin to the TTL paths: a
// staleness check is one clock call against immutable state, so neither the
// fresh-hit nor the stale-degraded lookup may allocate.
func TestLookupTTLZeroAlloc(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(1 * time.Hour))
	st := NewStore()
	st.SetClock(now.Load)
	stale := ipaddr.Addr(0x0a000001)
	for i := 0; i < 64; i++ {
		st.Add(ipaddr.Addr(0x0a000001+uint32(i)<<8), time.Duration(i+1)*time.Millisecond)
	}
	now.Store(int64(2 * time.Hour))
	fresh := ipaddr.Addr(0x0aff0001)
	st.Add(fresh, 5*time.Millisecond)

	adv := New()
	adv.SetClock(now.Load)
	adv.SetTTL(30 * time.Minute)
	adv.Publish(st)
	now.Store(int64(2*time.Hour + 10*time.Minute))

	if n := testing.AllocsPerRun(1000, func() {
		if a, err := adv.Lookup(fresh, 95, 95); err != nil || a.Stale {
			t.Fatalf("fresh lookup: %+v, %v", a, err)
		}
	}); n != 0 {
		t.Errorf("fresh TTL lookup allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if a, err := adv.Lookup(stale, 95, 95); err != nil || !a.Stale {
			t.Fatalf("stale lookup: %+v, %v", a, err)
		}
	}); n != 0 {
		t.Errorf("stale TTL lookup allocates %v/op", n)
	}
}
