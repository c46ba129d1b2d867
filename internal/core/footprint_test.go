package core_test

import (
	"runtime"
	"testing"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
	"timeouts/internal/survey"
)

// TestMatcherQuietFootprint pins what an address that never answers costs
// the matcher. A survey probes every address of its /24s and most never
// answer, so this cost sets the matcher's memory. Dense /24s of timeout-only
// addresses, one responder in each, go through a StreamMatcher in emission
// order; the live heap after GC may then grow by at most 64 B per quiet
// address, the /24 index and the few responders included. The result must
// still report each quiet address's probes, errors and order flags.
func TestMatcherQuietFootprint(t *testing.T) {
	const (
		blocks   = 256
		cycles   = 4
		interval = 660 * time.Second
		perQuiet = 64 // bytes
	)
	prefix := func(b int) ipaddr.Prefix24 { return ipaddr.Make(20, byte(b>>8), byte(b), 0).Prefix() }
	// Octet 0 of each /24 answers every probe; octet 255 also draws an ICMP
	// error; octet 254 of the first /24 is probed twice at one instant in
	// the first cycle, which breaks emission order.
	flagged := prefix(0).Addr(254)

	sampler := obs.NewHeapSampler(1)
	m := core.NewStreamMatcher(core.Options{})
	for c := 0; c < cycles; c++ {
		for o := 0; o < 256; o++ {
			for b := 0; b < blocks; b++ {
				a := prefix(b).Addr(byte(o))
				when := time.Duration(c)*interval + time.Duration(o*blocks+b)*time.Millisecond
				switch {
				case o == 0:
					m.Observe(survey.Record{Type: survey.RecMatched, Addr: a, When: when, RTT: 40 * time.Millisecond})
					continue
				case o == 255 && c == 0:
					m.Observe(survey.Record{Type: survey.RecError, Addr: a, When: when})
				case a == flagged && c == 0:
					m.Observe(survey.Record{Type: survey.RecTimeout, Addr: a, When: when})
				}
				m.Observe(survey.Record{Type: survey.RecTimeout, Addr: a, When: when})
			}
		}
	}
	quiet := blocks * 255
	grown := sampler.Peak()
	t.Logf("live heap grew %d B: %.1f B per quiet address", grown, float64(grown)/float64(quiet))
	if grown > uint64(perQuiet*quiet) {
		t.Errorf("live heap grew %d B for %d quiet addresses: %.1f B each, want at most %d",
			grown, quiet, float64(grown)/float64(quiet), perQuiet)
	}

	res := m.Finalize()
	if res.Len() != blocks*256 || res.OutOfOrder != 1 {
		t.Fatalf("result has %d addresses, %d out of order; want %d and 1", res.Len(), res.OutOfOrder, blocks*256)
	}
	seen := 0
	res.Range(func(a ipaddr.Addr, ar *core.AddressResult) {
		o := a.LastOctet()
		probes := cycles
		if a == flagged {
			probes++
		}
		if ar.Probes != probes || ar.ErrorSeen != (o == 255) || ar.OutOfOrder != (a == flagged) ||
			(len(ar.Matched) == cycles) != (o == 0) || len(ar.Delayed) != 0 {
			t.Fatalf("%s: %d probes, error %v, out of order %v, %d matched, %d delayed",
				a, ar.Probes, ar.ErrorSeen, ar.OutOfOrder, len(ar.Matched), len(ar.Delayed))
		}
		seen++
	})
	if seen != blocks*256 {
		t.Fatalf("Range visited %d addresses, want %d", seen, blocks*256)
	}
	if ar := res.Lookup(flagged); ar == nil || ar.Probes != cycles+1 || !ar.OutOfOrder {
		t.Fatalf("Lookup(%s) = %+v, want %d probes, out of order", flagged, ar, cycles+1)
	}
	runtime.KeepAlive(res)
}
