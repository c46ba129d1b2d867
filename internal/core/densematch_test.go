package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// denseStream builds a record stream over three neighbouring /24s plus a
// couple of strays in other prefixes, exercising every record class.
func denseStream() []survey.Record {
	interval := 660 * time.Second
	base := ipaddr.Addr(0x02000000)
	var b recBuilder
	for i := 0; i < 64; i++ {
		a := base + ipaddr.Addr(i*11)
		for r := 0; r < 30; r++ {
			bt := time.Duration(r) * interval
			switch i % 6 {
			case 0:
				b.matched(a, bt, time.Duration(90+i+r)*time.Millisecond)
			case 1:
				b.timeout(a, bt)
				b.unmatched(a, bt+time.Duration(8+(r*13)%50)*time.Second, 1)
			case 2:
				b.timeout(a, bt)
				b.unmatched(a, bt+330*time.Second, 1)
			case 3:
				b.matched(a, bt, 100*time.Millisecond)
				b.unmatched(a, bt+2*time.Second, 6)
			case 4:
				if r == 0 {
					b.errorRec(a, bt)
				}
				b.matched(a, bt, 120*time.Millisecond)
			default:
				b.matched(a, bt, 150*time.Millisecond)
				if r%5 == 2 {
					b.unmatched(a, bt+4*time.Second, 2)
				}
			}
		}
	}
	// Strays in prefixes of their own.
	b.timeout(ipaddr.Addr(0x03000001), 10*time.Second)
	b.unmatched(ipaddr.Addr(0x03000001), 10*time.Second+interval, 1)
	b.matched(ipaddr.Addr(0x01ffffff), 20*time.Second, time.Second)
	return b.recs
}

// TestStreamMatcherDenseEquivalence pins the matcher over denseStream,
// strays included, to the SHA-256 of its filtered and naive reports plus a
// canonical per-address dump. The hash was captured when the matcher kept
// its state either in a map or in a population-indexed flat slice with a
// spill map — two modes proven identical to each other — and a quantile
// sketch that was exact at this depth; the per-/24 state that replaced
// both, keeping every sample, must reproduce it.
func TestStreamMatcherDenseEquivalence(t *testing.T) {
	const want = "98125a7c63378ba5eaae96ac03a0f4d94374d992b71214294cc018835e0e4a08"
	recs := denseStream()
	h := sha256.New()
	for _, opt := range []Options{{}, MatchOptionsForCycles(30)} {
		m := NewStreamMatcher(opt)
		for _, rec := range recs {
			m.Observe(rec)
		}
		fmt.Fprintf(h, "live %d records %d\n", m.Addresses(), m.Records())
		r := m.Finalize()
		io.WriteString(h, RenderReport(r, false))
		io.WriteString(h, RenderReport(r, true))
		r.Range(func(a ipaddr.Addr, ar *AddressResult) {
			var q stats.Quantiles
			if samples := slices.Concat(ar.Matched, ar.Delayed); len(samples) > 0 {
				q = stats.ComputeQuantiles(samples)
			}
			fmt.Fprintf(h, "%s matched=%d delayed=%d probes=%d maxresp=%d bc=%v dup=%v err=%v packets=%d q=%v\n",
				a, len(ar.Matched), len(ar.Delayed), ar.Probes, ar.MaxResponses, ar.Broadcast, ar.Duplicate,
				ar.ErrorSeen, ar.ResponsePackets(), q)
		})
		if m.Addresses() != 0 || m.Records() != 0 {
			t.Error("Finalize did not reset the matcher")
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("stream matcher digest %s, pinned %s", got, want)
	}
}

// TestAddressQuantilesMemoized pins the memo RenderReport relies on: each
// view's quantiles are built once, and rendering a report reuses them
// rather than building another slice.
func TestAddressQuantilesMemoized(t *testing.T) {
	res := Match(denseStream(), Options{})
	views := map[string]func() []AddrQuantiles{
		"naive":           func() []AddrQuantiles { return res.AddressQuantiles(false) },
		"filtered":        func() []AddrQuantiles { return res.AddressQuantiles(true) },
		"survey-detected": res.SurveyDetectedQuantiles,
	}
	for name, view := range views {
		first := view()
		if len(first) == 0 {
			t.Fatalf("%s: no quantiles", name)
		}
		RenderReport(res, false)
		RenderReport(res, true)
		if second := view(); len(second) != len(first) || &second[0] != &first[0] {
			t.Errorf("%s: the second call rebuilt the quantiles", name)
		}
	}
}

// TestAddressQuantilesConcurrent has several goroutines read one fresh
// Result's views at once, as experiments sharing a Lab's match may: each
// must get the one memoized slice (run under -race).
func TestAddressQuantilesConcurrent(t *testing.T) {
	res := Match(denseStream(), Options{})
	const readers = 4
	got := make([][]AddrQuantiles, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			RenderReport(res, false)
			res.SurveyDetectedQuantiles()
			got[i] = res.AddressQuantiles(true)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) == 0 || &got[i][0] != &got[0][0] {
			t.Fatalf("reader %d got its own quantiles", i)
		}
	}
}
