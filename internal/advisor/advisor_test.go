package advisor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// Add folds one directly measured latency sample for addr into its prefix
// sketch, bypassing record-stream attribution: how the tests build stores
// sample by sample.
func (s *Store) Add(addr ipaddr.Addr, rtt time.Duration) {
	s.sample(addr, rtt)
	s.matched++
}

func TestSketchQuantileConservative(t *testing.T) {
	sk := NewSketch()
	if _, ok := sk.Quantile(95); ok {
		t.Fatal("empty sketch reported a quantile")
	}
	// 99 fast samples and one slow one: low/mid quantiles stay at the fast
	// bucket's bound, the extreme tail reaches the slow bucket's bound.
	for i := 0; i < 99; i++ {
		sk.Add(1 * time.Millisecond)
	}
	sk.Add(10 * time.Second)
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{1, 1 * time.Millisecond},
		{50, 1 * time.Millisecond},
		{99, 1 * time.Millisecond},
		{99.5, 10 * time.Second},
	} {
		got, ok := sk.Quantile(tc.p)
		if !ok || got != tc.want {
			t.Errorf("Quantile(%v) = %v, %v; want %v, true", tc.p, got, ok, tc.want)
		}
	}
	// Conservative: a sample strictly inside a bucket reads as the bucket's
	// upper bound, never below the true value.
	sk2 := NewSketch()
	sk2.Add(1200 * time.Microsecond) // inside the (1ms, 1.5ms] bucket
	if got, _ := sk2.Quantile(50); got != 1500*time.Microsecond {
		t.Errorf("Quantile(50) = %v, want 1.5ms (bucket upper bound)", got)
	}
	// Overflow clamps to maxAdvice.
	sk3 := NewSketch()
	sk3.Add(2000 * time.Second)
	if got, _ := sk3.Quantile(50); got != maxAdvice {
		t.Errorf("overflow Quantile(50) = %v, want %v", got, maxAdvice)
	}
}

func TestSketchMergeEqualsCombined(t *testing.T) {
	a, b, all := NewSketch(), NewSketch(), NewSketch()
	for i := 0; i < 10; i++ {
		a.Add(1 * time.Millisecond)
		all.Add(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		b.Add(100 * time.Millisecond)
		all.Add(100 * time.Millisecond)
	}
	a.Merge(b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, combined %d", a.N(), all.N())
	}
	for _, p := range stats.StandardPercentiles {
		ma, _ := a.Quantile(p)
		mc, _ := all.Quantile(p)
		if ma != mc {
			t.Errorf("p%v: merged %v, combined %v", p, ma, mc)
		}
	}
}

// quantileOracle is the per-level nearest-rank rule Sketch.Quantile
// implemented before the one-pass row (levelBuckets) existed, kept verbatim
// as the reference the row must reproduce.
func quantileOracle(s *Sketch, p float64) time.Duration {
	if s.n == 0 {
		return 0
	}
	target := uint64(p / 100 * float64(s.n))
	if float64(target) < p/100*float64(s.n) || target == 0 {
		target++
	}
	if target > s.n {
		target = s.n
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= target {
			if i == len(bucketBounds) {
				return maxAdvice
			}
			return bucketBounds[i]
		}
	}
	return maxAdvice
}

// sketchOf builds a sketch straight from bucket counts.
func sketchOf(counts map[int]uint64) *Sketch {
	sk := NewSketch()
	for i, c := range counts {
		sk.counts[i] += c
		sk.n += c
	}
	return sk
}

func TestSketchStandardRowMatchesQuantile(t *testing.T) {
	overflow := numBuckets - 1
	cases := map[string]*Sketch{
		"empty":         NewSketch(),
		"overflow-only": sketchOf(map[int]uint64{overflow: 5}),
		// n = 100 with the cumulative count landing exactly on the rank of
		// every standard level: 1, 50, 80, 90, 95, 98, 99.
		"exact-ranks": sketchOf(map[int]uint64{0: 1, 3: 49, 5: 30, 7: 10, 9: 5, 10: 3, 12: 1, overflow: 1}),
	}
	for i := 0; i < numBuckets; i++ {
		cases[fmt.Sprintf("n1-bucket%d", i)] = sketchOf(map[int]uint64{i: 1})
		cases[fmt.Sprintf("one-bucket%d", i)] = sketchOf(map[int]uint64{i: 37})
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 500; k++ {
		counts := map[int]uint64{}
		for i := 0; i < numBuckets; i++ {
			if rng.Intn(3) == 0 {
				counts[i] = uint64(rng.Intn(1 << uint(rng.Intn(16))))
			}
		}
		cases[fmt.Sprintf("random%d", k)] = sketchOf(counts)
	}
	var idx [nLevels]int
	row := make([]time.Duration, nLevels)
	for name, sk := range cases {
		clear(row) // an empty sketch has no row; it reads as zeros
		if sk.n > 0 {
			for i := range idx {
				idx[i] = -1 // stale values must be overwritten
			}
			levelBuckets(sk.counts, sk.n, &idx)
			for c, i := range idx {
				if i < 0 || i >= numBuckets {
					t.Fatalf("%s (n=%d): level %d bucket %d", name, sk.n, c, i)
				}
				row[c] = bucketValue(i)
			}
		}
		for c, p := range stats.StandardPercentiles {
			if want := quantileOracle(sk, p); row[c] != want {
				t.Errorf("%s (n=%d): p%v row %v, oracle %v", name, sk.n, p, row[c], want)
			}
			if got, _ := sk.Quantile(p); got != row[c] {
				t.Errorf("%s (n=%d): p%v Quantile %v, row %v", name, sk.n, p, got, row[c])
			}
		}
	}
}

func TestStoreObserveAttribution(t *testing.T) {
	addrA := ipaddr.Addr(0x0a000001) // 10.0.0.1
	addrB := ipaddr.Addr(0x0a000101) // 10.0.1.1
	addrC := ipaddr.Addr(0x0a000201) // 10.0.2.1
	addrD := ipaddr.Addr(0x0a000301) // 10.0.3.1

	st := NewStore()
	reg := obs.NewRegistry()
	st.SetObserver(reg)

	recs := []survey.Record{
		// Matched: direct 10ms sample for A.
		{Type: survey.RecMatched, Addr: addrA, When: 1 * time.Second, RTT: 10 * time.Millisecond},
		// Timeout then a late response 5s later: delayed sample for B.
		{Type: survey.RecTimeout, Addr: addrB, When: 2 * time.Second},
		{Type: survey.RecUnmatched, Addr: addrB, When: 7 * time.Second},
		// A second unmatched for B must not double-credit the same probe.
		{Type: survey.RecUnmatched, Addr: addrB, When: 8 * time.Second},
		// Unmatched with no open probe at all: dropped.
		{Type: survey.RecUnmatched, Addr: addrC, When: 9 * time.Second},
		// Unmatched that does not arrive strictly after the send: dropped.
		{Type: survey.RecTimeout, Addr: addrD, When: 5 * time.Second},
		{Type: survey.RecUnmatched, Addr: addrD, When: 5 * time.Second},
		// Errors carry no latency.
		{Type: survey.RecError, Addr: addrA, When: 9 * time.Second},
	}
	for _, r := range recs {
		st.Observe(r)
	}

	if st.Records() != uint64(len(recs)) {
		t.Errorf("Records = %d, want %d", st.Records(), len(recs))
	}
	if st.Samples() != 2 {
		t.Errorf("Samples = %d, want 2 (one matched + one delayed)", st.Samples())
	}
	if st.Prefixes() != 2 {
		t.Errorf("Prefixes = %d, want 2", st.Prefixes())
	}
	if got := reg.Counter("advisor.ingest.samples").Value(); got != 2 {
		t.Errorf("ingest.samples = %d, want 2", got)
	}

	snap := st.Snapshot(1)
	// B's only sample is the recovered 5s delay; 5s is a ladder bound, so
	// every quantile of the one-sample sketch reads exactly 5s.
	adv, err := snap.Lookup(addrB, 95, 95)
	if err != nil {
		t.Fatalf("Lookup(B): %v", err)
	}
	if adv.Source != SourcePrefix || adv.Timeout != 5*time.Second || adv.Samples != 1 {
		t.Errorf("Lookup(B) = %+v, want 5s from prefix with 1 sample", adv)
	}
}

func TestStoreDelayedAttributionUsesNewestOpenProbe(t *testing.T) {
	addr := ipaddr.Addr(0x0a000001)
	st := NewStore()
	st.Observe(survey.Record{Type: survey.RecTimeout, Addr: addr, When: 1 * time.Second})
	st.Observe(survey.Record{Type: survey.RecTimeout, Addr: addr, When: 3 * time.Second})
	st.Observe(survey.Record{Type: survey.RecUnmatched, Addr: addr, When: 10 * time.Second})
	if st.Samples() != 1 {
		t.Fatalf("Samples = %d, want 1", st.Samples())
	}
	// Attribution picks the newest open probe (sent at 3s): latency 7s, a
	// ladder bound. Attribution to the older probe would read 9s -> 10s.
	adv, err := st.Snapshot(1).Lookup(addr, 95, 95)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if adv.Timeout != 7*time.Second {
		t.Errorf("Timeout = %v, want 7s (newest open probe)", adv.Timeout)
	}
}

func TestSnapshotLookupSemantics(t *testing.T) {
	known := ipaddr.Addr(0x0a000001)   // 10.0.0.1: has data
	sibling := ipaddr.Addr(0x0a0000fe) // 10.0.0.254: same /24
	unknown := ipaddr.Addr(0xc0a80001) // 192.168.0.1: no data

	st := NewStore()
	for i := 0; i < 10; i++ {
		st.Add(known, 20*time.Millisecond)
	}
	snap := st.Snapshot(7)

	adv, err := snap.Lookup(known, 95, 95)
	if err != nil || adv.Source != SourcePrefix || adv.Timeout != 20*time.Millisecond {
		t.Errorf("known: %+v, %v; want 20ms from prefix", adv, err)
	}
	if adv.Epoch != 7 {
		t.Errorf("Epoch = %d, want 7", adv.Epoch)
	}
	// Any address in the same /24 shares the sketch.
	if adv2, err := snap.Lookup(sibling, 95, 95); err != nil || adv2 != adv {
		t.Errorf("sibling: %+v, %v; want same advice as known", adv2, err)
	}
	// Unknown prefix falls back to the population matrix.
	adv, err = snap.Lookup(unknown, 95, 95)
	if err != nil || adv.Source != SourcePopulation {
		t.Fatalf("unknown: %+v, %v; want population fallback", adv, err)
	}
	if adv.Timeout != 20*time.Millisecond || adv.Samples != 1 {
		t.Errorf("fallback advice = %+v, want 20ms over 1 prefix", adv)
	}
	// Levels tolerate the same float noise as stats.TimeoutMatrix.
	noisy := 80.00000000000001
	if _, err := snap.Lookup(known, noisy, noisy); err != nil {
		t.Errorf("noisy level rejected: %v", err)
	}
	// Non-standard levels are caller errors.
	if _, err := snap.Lookup(known, 42, 95); err != ErrBadLevel {
		t.Errorf("capture=42: err = %v, want ErrBadLevel", err)
	}
	if _, err := snap.Lookup(known, 95, 42); err != ErrBadLevel {
		t.Errorf("coverage=42: err = %v, want ErrBadLevel", err)
	}
	// An empty snapshot has no advice for anyone — never a fabricated 0s.
	if _, err := NewStore().Snapshot(1).Lookup(known, 95, 95); err != ErrNoData {
		t.Errorf("empty snapshot: err = %v, want ErrNoData", err)
	}
}

func TestStoreMergeOrderIndependent(t *testing.T) {
	mk := func() (a, b *Store) {
		a, b = NewStore(), NewStore()
		for i := 0; i < 5; i++ {
			a.Add(ipaddr.Addr(0x0a000001), 10*time.Millisecond)
			b.Add(ipaddr.Addr(0x0a000101), 200*time.Millisecond)
			b.Add(ipaddr.Addr(0x0a000001), 1*time.Second)
		}
		return a, b
	}

	a1, b1 := mk()
	a1.Merge(b1)
	a2, b2 := mk()
	b2.Merge(a2)

	var ab, ba bytes.Buffer
	if err := a1.Snapshot(1).WriteJSON(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b2.Snapshot(1).WriteJSON(&ba); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), ba.Bytes()) {
		t.Errorf("merge order changed the snapshot:\nA+B: %s\nB+A: %s", ab.Bytes(), ba.Bytes())
	}
}

func TestHTTPHandler(t *testing.T) {
	adv := New()
	reg := obs.NewRegistry()
	adv.SetObserver(reg)
	h := NewHandler(adv)

	get := func(url string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
		return w
	}

	// Before the first publish: health answers, advice and snapshot do not.
	if w := get("/timeout?addr=10.0.0.1"); w.Code != http.StatusNotFound {
		t.Errorf("pre-publish /timeout: %d, want 404", w.Code)
	}
	if w := get("/snapshot"); w.Code != http.StatusNotFound {
		t.Errorf("pre-publish /snapshot: %d, want 404", w.Code)
	}
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Errorf("/healthz: %d, want 200", w.Code)
	}

	st := NewStore()
	st.Add(ipaddr.Addr(0x0a000001), 50*time.Millisecond)
	adv.Publish(st)

	// Caller errors.
	if w := get("/timeout"); w.Code != http.StatusBadRequest {
		t.Errorf("missing addr: %d, want 400", w.Code)
	}
	if w := get("/timeout?addr=not-an-ip"); w.Code != http.StatusBadRequest {
		t.Errorf("bad addr: %d, want 400", w.Code)
	}
	if w := get("/timeout?addr=10.0.0.1&capture=42"); w.Code != http.StatusBadRequest {
		t.Errorf("bad capture: %d, want 400", w.Code)
	}
	if w := get("/timeout?addr=10.0.0.1&capture=abc"); w.Code != http.StatusBadRequest {
		t.Errorf("unparsable capture: %d, want 400", w.Code)
	}

	// Prefix hit with default levels (95/95).
	w := get("/timeout?addr=10.0.0.99")
	if w.Code != http.StatusOK {
		t.Fatalf("/timeout: %d, body %s", w.Code, w.Body.Bytes())
	}
	var resp adviceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.Source != "prefix" || resp.TimeoutNS != int64(50*time.Millisecond) ||
		resp.Capture != 95 || resp.Coverage != 95 || resp.Epoch != 1 ||
		resp.Prefix != "10.0.0.0/24" {
		t.Errorf("advice = %+v", resp)
	}

	// Unknown prefix: population fallback.
	if err := json.Unmarshal(get("/timeout?addr=192.168.0.1&capture=50&coverage=50").Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "population" || resp.Capture != 50 {
		t.Errorf("fallback advice = %+v", resp)
	}

	// Health reflects the published snapshot.
	var h2 healthResponse
	if err := json.Unmarshal(get("/healthz").Body.Bytes(), &h2); err != nil {
		t.Fatal(err)
	}
	if !h2.OK || h2.Epoch != 1 || h2.Prefixes != 1 || h2.Samples != 1 {
		t.Errorf("health = %+v", h2)
	}

	// /snapshot serves exactly Snapshot.WriteJSON.
	var want bytes.Buffer
	if err := adv.Current().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if got := get("/snapshot").Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("/snapshot body differs from WriteJSON")
	}

	// The serving metrics saw the traffic.
	if q := reg.Counter("advisor.queries").Value(); q == 0 {
		t.Error("advisor.queries not incremented")
	}
	if f := reg.Counter("advisor.population_fallbacks").Value(); f != 1 {
		t.Errorf("population_fallbacks = %d, want 1", f)
	}
}

// TestLookupZeroAlloc pins the lock-free read path at zero allocations per
// query, on both the snapshot and the advisor (atomic-load) entry points.
func TestLookupZeroAlloc(t *testing.T) {
	st := NewStore()
	for i := 0; i < 64; i++ {
		st.Add(ipaddr.Addr(0x0a000001+uint32(i)<<8), time.Duration(i+1)*time.Millisecond)
	}
	adv := New()
	snap := adv.Publish(st)
	hit := ipaddr.Addr(0x0a000501)
	miss := ipaddr.Addr(0xc0a80001)

	if n := testing.AllocsPerRun(1000, func() {
		if _, err := snap.Lookup(hit, 95, 95); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Snapshot.Lookup(hit) allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := adv.Lookup(miss, 98, 90); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Advisor.Lookup(fallback) allocates %v/op", n)
	}
}
