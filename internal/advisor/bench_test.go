package advisor

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
	"timeouts/internal/survey"
)

// benchAdvisor builds an advisor with a published snapshot over nPrefixes
// /24s, sized like a real survey ingest (thousands of prefixes).
func benchAdvisor(nPrefixes int) *Advisor {
	st := NewStore()
	for i := 0; i < nPrefixes; i++ {
		addr := ipaddr.Addr(0x0a000001 + uint32(i)<<8)
		for j := 0; j < 8; j++ {
			st.Add(addr, time.Duration(1+(i+j)%500)*time.Millisecond)
		}
	}
	adv := New()
	adv.Publish(st)
	return adv
}

// BenchmarkAdvisorLookup measures the serving hot path — atomic snapshot
// load, level resolution, prefix binary search, flat-array read — mixing
// prefix hits across ranks with population fallbacks. The gate
// (make bench-compare) holds it to the checked-in baseline; the allocation
// pin is TestLookupZeroAlloc, and concurrent-reader correctness is
// TestAdvisorEpochConsistencyUnderSwap.
func BenchmarkAdvisorLookup(b *testing.B) {
	adv := benchAdvisor(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := ipaddr.Addr(0x0a000001 + uint32(i&4095)<<8)
		if i&7 == 7 {
			addr = ipaddr.Addr(0xc0a80001 + uint32(i))
		}
		if _, err := adv.Lookup(addr, 95, 95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvisorLookupTTL measures the same hot path with a staleness TTL
// armed, mixing fresh hits, TTL-degraded prefixes, and population fallbacks.
// The TTL check is one clock call against immutable per-prefix stamps, so
// this must stay 0 allocs/op (pinned by TestLookupTTLZeroAlloc) and within
// noise of the TTL-free BenchmarkAdvisorLookup.
func BenchmarkAdvisorLookupTTL(b *testing.B) {
	var now int64 = int64(time.Hour)
	clock := func() int64 { return now }
	st := NewStore()
	st.SetClock(clock)
	// First half stamped at 1h (stale under the TTL below), second half at 2h.
	for i := 0; i < 4096; i++ {
		if i == 2048 {
			now = int64(2 * time.Hour)
		}
		addr := ipaddr.Addr(0x0a000001 + uint32(i)<<8)
		for j := 0; j < 8; j++ {
			st.Add(addr, time.Duration(1+(i+j)%500)*time.Millisecond)
		}
	}
	adv := New()
	adv.SetClock(clock)
	adv.SetTTL(30 * time.Minute)
	adv.Publish(st)
	now = int64(2*time.Hour + 10*time.Minute)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := ipaddr.Addr(0x0a000001 + uint32(i&4095)<<8)
		if i&7 == 7 {
			addr = ipaddr.Addr(0xc0a80001 + uint32(i))
		}
		if _, err := adv.Lookup(addr, 95, 95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateShed measures the overload rejection path: with the admission
// semaphore full, every request must be turned away in a few hundred
// nanoseconds — shedding that is slower than serving defeats its purpose.
func BenchmarkGateShed(b *testing.B) {
	gate := NewGate(1, time.Second)
	gate.sem <- struct{}{} // saturate admission so every request sheds
	h := gate.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.Fatal("admitted a request past a full gate")
	}))
	req := httptest.NewRequest(http.MethodGet, "/timeout", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &shedSinkWriter{}
		h.ServeHTTP(w, req)
		if w.code != http.StatusServiceUnavailable {
			b.Fatalf("code = %d, want 503", w.code)
		}
	}
}

// shedSinkWriter is a minimal ResponseWriter so the benchmark measures the
// gate, not httptest.ResponseRecorder's buffer management.
type shedSinkWriter struct {
	h    http.Header
	code int
}

func (w *shedSinkWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *shedSinkWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *shedSinkWriter) WriteHeader(code int)        { w.code = code }

// BenchmarkServeInstrumented measures the serve-path instrumentation
// middleware riding a trivial handler: pooled status capture, two clock
// reads, one histogram add. The overhead must stay in the tens of
// nanoseconds and 0 allocs/op (pinned by TestServeInstrumentedZeroAlloc) —
// telemetry that taxes the hot path becomes the latency it measures.
func BenchmarkServeInstrumented(b *testing.B) {
	reg := obs.NewRegistry()
	m := NewServeMetrics(reg)
	h := m.Instrument(routeTimeout, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	req := httptest.NewRequest(http.MethodGet, "/timeout", nil)
	w := &shedSinkWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.code = 0
		h.ServeHTTP(w, req)
	}
	if got := reg.DiagHistogram("advisor.http.latency.timeout.2xx").Count(); got != uint64(b.N) {
		b.Fatalf("recorded %d samples, want %d", got, b.N)
	}
}

// BenchmarkPromEncode measures one full /metrics render over a registry
// sized like a live advisord: the store/advisor/gate counter families plus
// populated serve histograms. Scrapes run every few seconds for the life of
// the process, so the encode must stay comfortably sub-millisecond.
func BenchmarkPromEncode(b *testing.B) {
	reg := obs.NewRegistry()
	adv := benchAdvisor(4096)
	adv.SetObserver(reg)
	st := NewStore()
	st.SetObserver(reg)
	m := NewServeMetrics(reg)
	for r := routeKind(0); r < numRoutes; r++ {
		for c := 0; c < numClasses; c++ {
			m.hists[r][c].ObserveN(time.Duration(c+1)*time.Millisecond, 1000)
		}
	}
	for i := 0; i < 1000; i++ {
		adv.Lookup(ipaddr.Addr(0x0a000001+uint32(i)<<8), 95, 95)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WritePromText(io.Discard, reg, adv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreObserve measures the steady-state ingest cost: one matched
// record folded into an existing prefix sketch plus open-probe bookkeeping.
// The address set is pre-populated so the timer never sees map growth.
func BenchmarkStoreObserve(b *testing.B) {
	st := NewStore()
	rec := survey.Record{Type: survey.RecMatched, RTT: time.Millisecond, When: time.Second}
	for i := 0; i < 1024; i++ {
		rec.Addr = ipaddr.Addr(0x0a000001 + uint32(i)<<8)
		st.Observe(rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Addr = ipaddr.Addr(0x0a000001 + uint32(i&1023)<<8)
		rec.RTT = time.Duration(i%1000) * time.Millisecond
		st.Observe(rec)
	}
}

// benchStream is an in-process survey record stream (256 blocks, 4 cycles:
// ~262 k probes), generated once per test binary.
var benchStream = sync.OnceValues(func() ([]survey.Record, error) {
	pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: 256})
	model := netmodel.NewModel(pop)
	model.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
	cfg := survey.Config{Vantage: survey.VantageW, Blocks: pop.Blocks(), Cycles: 4, Seed: 42}
	var mem survey.MemWriter
	_, err := survey.Run(simnet.NewNetwork(&simnet.Scheduler{}, model), cfg, &mem)
	return mem.Records, err
})

// benchDataset is benchStream encoded once as a tosv dataset in memory, the
// format advisord reads.
var benchDataset = sync.OnceValues(func() ([]byte, error) {
	recs, err := benchStream()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := survey.NewWriter(&buf, survey.Header{Seed: 42, Vantage: 'w'})
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
})

// benchIngest runs RunIngest over cfg with a fresh store and advisor per op,
// publishing every 4096 records as advisord does, and reports ns/record and
// allocs/record: the whole op divided by the n records each op must ingest.
func benchIngest(b *testing.B, cfg IngestConfig, n int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := RunIngest(context.Background(), cfg, NewStore(), New(), nil)
		if err != nil || stats.Records != uint64(n) {
			b.Fatalf("RunIngest = %d records, %v; want %d", stats.Records, err, n)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/record")
}

// BenchmarkRunIngest measures advisord's ingest loop in process over the
// survey stream as records in memory: RunIngest's per-record loop, the
// store, and the publishes.
func BenchmarkRunIngest(b *testing.B) {
	recs, err := benchStream()
	if err != nil {
		b.Fatal(err)
	}
	benchIngest(b, IngestConfig{Open: func() (survey.RecordSource, error) {
		return &sliceSource{recs: recs}, nil
	}}, len(recs))
}

// BenchmarkIngestDataset measures RunIngest the way advisord feeds it: the
// stream encoded as a tosv dataset (in memory, so no disk is timed) and
// decoded by survey.OpenSourceLenient on the loop's goroutine, skip
// accounting included.
func BenchmarkIngestDataset(b *testing.B) {
	recs, err := benchStream()
	if err != nil {
		b.Fatal(err)
	}
	data, err := benchDataset()
	if err != nil {
		b.Fatal(err)
	}
	benchIngest(b, IngestConfig{Open: func() (survey.RecordSource, error) {
		src, _, err := survey.OpenSourceLenient(bytes.NewReader(data))
		return src, err
	}}, len(recs))
}

// publishBenchStore is a 512-prefix store — the size of the default survey
// — of 64 samples per prefix.
func publishBenchStore() *Store {
	st := NewStore()
	for i := 0; i < 512; i++ {
		addr := ipaddr.Addr(0x0a000001 + uint32(i)<<8)
		for j := 0; j < 64; j++ {
			st.Add(addr, time.Duration(1+(i*7+j*j)%2000)*time.Millisecond)
		}
	}
	return st
}

// BenchmarkAdvisorPublish measures one Publish of publishBenchStore, which
// advisord repeats every 4096 ingested records: one bucket pass per prefix
// for its standard-level row, and the population matrix counted from the
// rows. The prefix set does not change between ops, so the rank order is
// shared, as it is once a survey has visited every /24; TestPublishAllocs
// pins the allocations.
func BenchmarkAdvisorPublish(b *testing.B) {
	st := publishBenchStore()
	adv := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv.Publish(st)
	}
}
