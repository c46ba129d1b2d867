package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/survey"
)

// Addresses returns how many addresses hold matcher state.
func (m *StreamMatcher) Addresses() int { return m.cells.Len() }

// TestMatchBoundaryResponseOnProbeInstant is the regression test for the
// attribution boundary: record times are truncated (to seconds for timeout
// and unmatched records), so a delayed response can carry the same recorded
// time as a later probe's send. The response must attribute to the earlier,
// timed-out probe — attributing it to the probe "sent" at the same instant
// would manufacture a zero-latency delayed sample.
func TestMatchBoundaryResponseOnProbeInstant(t *testing.T) {
	var b recBuilder
	b.timeout(addrA, 0).
		timeout(addrA, 660*time.Second).
		unmatched(addrA, 660*time.Second, 1)
	res := Match(b.recs, Options{})
	ar := res.Lookup(addrA)
	if len(ar.Delayed) != 1 || ar.Delayed[0] != 660*time.Second {
		t.Fatalf("delayed = %v, want [11m0s] (attributed to the earlier probe)", ar.Delayed)
	}
	for _, d := range ar.Delayed {
		if d == 0 {
			t.Fatal("zero-latency sample manufactured at the truncation boundary")
		}
	}
}

// streamEquivalent writes recs as a dataset, streams it back through a
// StreamMatcher — the path cmd/analyze takes — and requires the result to
// equal Match over the slice field for field, sample order included, with
// no address flagged: the records are in emission order.
func streamEquivalent(t *testing.T, recs []survey.Record, opt Options) {
	t.Helper()
	res := Match(recs, opt)
	var buf bytes.Buffer
	w := survey.NewWriter(&buf, survey.Header{Vantage: 'w'})
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	src, _, err := survey.OpenSource(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := NewStreamMatcher(opt)
	if err := m.Consume(src); err != nil {
		t.Fatalf("Consume: %v", err)
	}
	if m.Records() != uint64(len(recs)) {
		t.Fatalf("consumed %d records, wrote %d", m.Records(), len(recs))
	}
	sr := m.Finalize()

	if res.OutOfOrder != 0 || sr.OutOfOrder != 0 {
		t.Fatalf("emission-ordered records flagged: %d in memory, %d streamed", res.OutOfOrder, sr.OutOfOrder)
	}
	if got, want := RenderReport(sr, false), RenderReport(res, false); got != want {
		t.Errorf("filtered reports differ:\nstreamed:\n%s\nin memory:\n%s", got, want)
	}
	if got, want := RenderReport(sr, true), RenderReport(res, true); got != want {
		t.Errorf("naive reports differ:\nstreamed:\n%s\nin memory:\n%s", got, want)
	}
	if sr.Len() != res.Len() {
		t.Fatalf("address counts differ: %d vs %d", sr.Len(), res.Len())
	}
	res.Range(func(a ipaddr.Addr, ar *AddressResult) {
		sar := sr.Lookup(a)
		if sar == nil {
			t.Fatalf("address %s missing from the streamed result", a)
		}
		if !reflect.DeepEqual(*sar, *ar) {
			t.Fatalf("address %s differs:\nstreamed  %+v\nin memory %+v", a, *sar, *ar)
		}
	})
}

// TestStreamMatcherEquivalentToMatch exercises every record class — matched,
// recovered delayed, duplicates past the filter threshold, broadcast-looking
// periodicity, errors, stray responses — and requires the matcher streamed
// from a dataset to agree with Match over the records observable for
// observable, including the rendered reports byte for byte.
func TestStreamMatcherEquivalentToMatch(t *testing.T) {
	interval := 660 * time.Second
	var b recBuilder
	for i := 0; i < 64; i++ {
		a := ipaddr.Addr(0x02000000 + uint32(i*11))
		for r := 0; r < 30; r++ {
			base := time.Duration(r) * interval
			switch i % 6 {
			case 0: // always answers in time
				b.matched(a, base, time.Duration(90+i+r)*time.Millisecond)
			case 1: // genuinely slow: varying delayed latencies
				b.timeout(a, base)
				b.unmatched(a, base+time.Duration(8+(r*13)%50)*time.Second, 1)
			case 2: // broadcast responder: stable half-interval latency
				b.timeout(a, base)
				b.unmatched(a, base+330*time.Second, 1)
			case 3: // duplicate responder
				b.matched(a, base, 100*time.Millisecond)
				b.unmatched(a, base+2*time.Second, 6)
			case 4: // error-tainted, then ordinary traffic
				if r == 0 {
					b.errorRec(a, base)
				}
				b.matched(a, base, 120*time.Millisecond)
			default: // mixes: matched rounds with an occasional late extra
				b.matched(a, base, 150*time.Millisecond)
				if r%5 == 2 {
					b.unmatched(a, base+4*time.Second, 2)
				}
			}
		}
	}
	// Stray response before any probe, and a response landing exactly on a
	// later probe's recorded send.
	stray := ipaddr.Addr(0x03000001)
	b.unmatched(stray, 5*time.Second, 1)
	b.timeout(stray, 10*time.Second)
	b.timeout(stray, 10*time.Second+interval)
	b.unmatched(stray, 10*time.Second+interval, 1)

	streamEquivalent(t, b.recs, Options{})
	streamEquivalent(t, b.recs, MatchOptionsForCycles(30))
}

// TestStreamMatcherBoundedState verifies the eviction policy: per address,
// only the last two probes stay open no matter how many records flow by, and
// Finalize resets the matcher.
func TestStreamMatcherBoundedState(t *testing.T) {
	m := NewStreamMatcher(Options{})
	for r := 0; r < 10000; r++ {
		m.Observe(survey.Record{
			Type: survey.RecTimeout, Addr: addrA,
			When: survey.TruncSecond(time.Duration(r) * 660 * time.Second),
		})
	}
	if m.Addresses() != 1 {
		t.Fatalf("addresses = %d", m.Addresses())
	}
	if m.Records() != 10000 {
		t.Fatalf("records = %d", m.Records())
	}
	sr := m.Finalize()
	if sr.Lookup(addrA).Probes != 10000 {
		t.Errorf("probes = %d", sr.Lookup(addrA).Probes)
	}
	if m.Addresses() != 0 || m.Records() != 0 {
		t.Error("Finalize did not reset the matcher")
	}
}

// TestMatchFlagsOutOfOrder pins the emission-order check: each way an
// address's records can break the order flags that address alone, and
// Result counts the flagged addresses.
func TestMatchFlagsOutOfOrder(t *testing.T) {
	const iv = 660 * time.Second
	cases := []struct {
		name    string
		build   func(b *recBuilder, a ipaddr.Addr)
		flagged bool
	}{
		{"emission order", func(b *recBuilder, a ipaddr.Addr) {
			b.timeout(a, 0).timeout(a, iv).unmatched(a, iv, 1).unmatched(a, iv+5*time.Second, 1).matched(a, 2*iv, time.Second)
		}, false},
		{"stray before the first probe", func(b *recBuilder, a ipaddr.Addr) {
			b.unmatched(a, 5*time.Second, 1).timeout(a, 5*time.Second)
		}, false},
		{"probes swapped", func(b *recBuilder, a ipaddr.Addr) {
			b.timeout(a, iv).timeout(a, 0)
		}, true},
		{"probe on its predecessor's send instant", func(b *recBuilder, a ipaddr.Addr) {
			b.timeout(a, iv).matched(a, iv, time.Second)
		}, true},
		{"probe sent before a response already seen", func(b *recBuilder, a ipaddr.Addr) {
			b.timeout(a, 0).unmatched(a, 20*time.Second, 1).timeout(a, 10*time.Second)
		}, true},
		{"responses swapped", func(b *recBuilder, a ipaddr.Addr) {
			b.timeout(a, 0).unmatched(a, 20*time.Second, 1).unmatched(a, 10*time.Second, 1)
		}, true},
		{"response behind two newer probes", func(b *recBuilder, a ipaddr.Addr) {
			b.timeout(a, 0).timeout(a, iv).timeout(a, 2*iv).unmatched(a, iv, 1)
		}, true},
	}
	var all recBuilder
	want := 0
	for i, c := range cases {
		a := ipaddr.Addr(0x05000000 + uint32(i))
		var b recBuilder
		c.build(&b, a)
		res := Match(b.recs, Options{})
		if got := res.Lookup(a).OutOfOrder; got != c.flagged {
			t.Errorf("%s: OutOfOrder = %v, want %v", c.name, got, c.flagged)
		}
		c.build(&all, a)
		if c.flagged {
			want++
		}
	}
	if got := Match(all.recs, Options{}).OutOfOrder; got != want {
		t.Errorf("Result.OutOfOrder = %d over the interleaved cases, want %d", got, want)
	}
}
