package core

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// recBuilder builds synthetic record streams for matcher tests.
type recBuilder struct {
	recs []survey.Record
}

func (b *recBuilder) matched(a ipaddr.Addr, send, rtt time.Duration) *recBuilder {
	b.recs = append(b.recs, survey.Record{Type: survey.RecMatched, Addr: a, When: send, RTT: rtt})
	return b
}

func (b *recBuilder) timeout(a ipaddr.Addr, send time.Duration) *recBuilder {
	b.recs = append(b.recs, survey.Record{Type: survey.RecTimeout, Addr: a, When: survey.TruncSecond(send)})
	return b
}

func (b *recBuilder) unmatched(a ipaddr.Addr, at time.Duration, count int) *recBuilder {
	b.recs = append(b.recs, survey.Record{Type: survey.RecUnmatched, Addr: a, When: survey.TruncSecond(at), RTT: time.Duration(count)})
	return b
}

func (b *recBuilder) errorRec(a ipaddr.Addr, at time.Duration) *recBuilder {
	b.recs = append(b.recs, survey.Record{Type: survey.RecError, Addr: a, When: survey.TruncSecond(at)})
	return b
}

var (
	addrA = ipaddr.MustParse("1.0.0.10")
	addrB = ipaddr.MustParse("1.0.0.20")
)

func TestMatchSurveyDetectedOnly(t *testing.T) {
	var b recBuilder
	b.matched(addrA, 0, 150*time.Millisecond).
		matched(addrA, 660*time.Second, 180*time.Millisecond)
	res := Match(b.recs, Options{})
	ar := res.Lookup(addrA)
	if len(ar.Matched) != 2 || len(ar.Delayed) != 0 {
		t.Fatalf("matched=%d delayed=%d", len(ar.Matched), len(ar.Delayed))
	}
	if ar.Probes != 2 || ar.MaxResponses != 1 {
		t.Errorf("probes=%d maxResp=%d", ar.Probes, ar.MaxResponses)
	}
	if ar.Discarded() {
		t.Error("clean address discarded")
	}
}

func TestMatchRecoversDelayedResponse(t *testing.T) {
	// A probe times out at t=0; an unmatched response from the same
	// address arrives 17 s later: a delayed response of 17 s.
	var b recBuilder
	b.timeout(addrA, 0).unmatched(addrA, 17*time.Second, 1)
	res := Match(b.recs, Options{})
	ar := res.Lookup(addrA)
	if len(ar.Delayed) != 1 || ar.Delayed[0] != 17*time.Second {
		t.Fatalf("delayed = %v", ar.Delayed)
	}
}

func TestMatchDelayedUsesMostRecentProbe(t *testing.T) {
	// Two timed-out probes; the response is attributed to the later one.
	var b recBuilder
	b.timeout(addrA, 0).timeout(addrA, 660*time.Second).unmatched(addrA, 700*time.Second, 1)
	res := Match(b.recs, Options{})
	ar := res.Lookup(addrA)
	if len(ar.Delayed) != 1 || ar.Delayed[0] != 40*time.Second {
		t.Fatalf("delayed = %v, want [40s]", ar.Delayed)
	}
}

func TestMatchDuplicateAfterMatchIsNotDelayed(t *testing.T) {
	// The probe was answered in time; a later extra copy must not create a
	// latency sample, only a duplicate count.
	var b recBuilder
	b.matched(addrA, 0, 100*time.Millisecond).unmatched(addrA, 5*time.Second, 1)
	res := Match(b.recs, Options{})
	ar := res.Lookup(addrA)
	if len(ar.Delayed) != 0 {
		t.Fatalf("delayed = %v, want none", ar.Delayed)
	}
	if ar.MaxResponses != 2 {
		t.Errorf("MaxResponses = %d, want 2", ar.MaxResponses)
	}
}

func TestMatchSecondUnmatchedIsDuplicate(t *testing.T) {
	// Only the first unmatched response after a timeout yields a sample.
	var b recBuilder
	b.timeout(addrA, 0).unmatched(addrA, 10*time.Second, 1).unmatched(addrA, 20*time.Second, 1)
	res := Match(b.recs, Options{})
	ar := res.Lookup(addrA)
	if len(ar.Delayed) != 1 {
		t.Fatalf("delayed = %v", ar.Delayed)
	}
	if ar.MaxResponses != 2 {
		t.Errorf("MaxResponses = %d", ar.MaxResponses)
	}
}

func TestMatchStrayResponseBeforeAnyProbe(t *testing.T) {
	var b recBuilder
	b.unmatched(addrA, 5*time.Second, 1).timeout(addrA, 10*time.Second)
	res := Match(b.recs, Options{})
	ar := res.Lookup(addrA)
	if len(ar.Delayed) != 0 {
		t.Errorf("stray response produced samples: %v", ar.Delayed)
	}
}

func TestMatchDuplicateFilter(t *testing.T) {
	// 6 copies in response to one probe exceed the paper's threshold of 4.
	var b recBuilder
	b.matched(addrA, 0, 100*time.Millisecond).unmatched(addrA, 1*time.Second, 5)
	res := Match(b.recs, Options{})
	ar := res.Lookup(addrA)
	if ar.MaxResponses != 6 {
		t.Fatalf("MaxResponses = %d", ar.MaxResponses)
	}
	if !ar.Duplicate || !ar.Discarded() {
		t.Error("duplicate responder not discarded")
	}
	// Exactly 4 responses (dup of direct + dup of broadcast) must survive.
	var b2 recBuilder
	b2.matched(addrB, 0, 100*time.Millisecond).unmatched(addrB, 1*time.Second, 3)
	res2 := Match(b2.recs, Options{})
	if res2.Lookup(addrB).Duplicate {
		t.Error("4 responses per request wrongly discarded")
	}
}

func TestMatchErrorAddressIgnored(t *testing.T) {
	var b recBuilder
	b.errorRec(addrA, 0).matched(addrA, 660*time.Second, 100*time.Millisecond)
	res := Match(b.recs, Options{})
	if !res.Lookup(addrA).ErrorSeen || !res.Lookup(addrA).Discarded() {
		t.Error("error-tainted address not ignored")
	}
	if hasAddr(res.AddressQuantiles(true), addrA) {
		t.Error("error-tainted address in filtered samples")
	}
	if !hasAddr(res.AddressQuantiles(false), addrA) {
		t.Error("naive samples should still include it")
	}
}

// TestFig4FalseMatchScenario reproduces the paper's Figure 4 exactly: a
// broadcast responder at .254 whose direct probes are lost answers the
// probes sent to the broadcast address .255 every round, 330 s after its
// own probe; naive matching infers a false 330 s latency each round, and
// the EWMA filter catches it.
func TestFig4FalseMatchScenario(t *testing.T) {
	dev := ipaddr.MustParse("211.4.10.254")
	interval := 660 * time.Second
	var b recBuilder
	const rounds = 40
	for r := 0; r < rounds; r++ {
		base := time.Duration(r) * interval
		// Probe to .254 at T, lost; response from .254 at T+330 (it
		// answered the ping to .255).
		b.timeout(dev, base)
		b.unmatched(dev, base+330*time.Second, 1)
	}
	res := Match(b.recs, Options{})
	ar := res.Lookup(dev)
	if len(ar.Delayed) != rounds {
		t.Fatalf("delayed samples = %d", len(ar.Delayed))
	}
	for _, d := range ar.Delayed {
		if d != 330*time.Second {
			t.Fatalf("false latency = %v, want 330s", d)
		}
	}
	if !ar.Broadcast {
		t.Error("EWMA filter missed the broadcast responder")
	}
	if hasAddr(res.AddressQuantiles(true), dev) {
		t.Error("broadcast responder survived filtering")
	}
	if !hasAddr(res.AddressQuantiles(false), dev) {
		t.Error("naive view lost the address")
	}
}

func TestBroadcastFilterSparesCongestedHost(t *testing.T) {
	// A genuinely slow host whose delayed latencies vary must NOT be
	// flagged: the filter keys on *stable* repeated latencies.
	slow := ipaddr.MustParse("1.0.0.77")
	interval := 660 * time.Second
	var b recBuilder
	lat := []time.Duration{12 * time.Second, 55 * time.Second, 23 * time.Second, 90 * time.Second,
		31 * time.Second, 150 * time.Second, 17 * time.Second, 70 * time.Second}
	for r := 0; r < 40; r++ {
		base := time.Duration(r) * interval
		b.timeout(slow, base)
		b.unmatched(slow, base+lat[r%len(lat)], 1)
	}
	res := Match(b.recs, Options{})
	if res.Lookup(slow).Broadcast {
		t.Error("varying-latency host wrongly flagged as broadcast responder")
	}
}

func TestBroadcastFilterToleratesOccasionalLoss(t *testing.T) {
	// The EWMA survives missing rounds (alpha is small); a responder that
	// answers 90% of rounds must still be caught.
	dev := ipaddr.MustParse("1.0.0.88")
	interval := 660 * time.Second
	var b recBuilder
	for r := 0; r < 80; r++ {
		base := time.Duration(r) * interval
		b.timeout(dev, base)
		if r%10 != 7 {
			b.unmatched(dev, base+330*time.Second, 1)
		}
	}
	res := Match(b.recs, MatchOptionsForCycles(80))
	if !res.Lookup(dev).Broadcast {
		t.Error("filter missed a persistent broadcast responder answering 9 of 10 rounds")
	}
}

func TestBroadcastFilterMissesRareResponder(t *testing.T) {
	// The paper's §3.3.1 false negatives: responders answering ~once every
	// 50 rounds slip through.
	dev := ipaddr.MustParse("1.0.0.99")
	interval := 660 * time.Second
	var b recBuilder
	for r := 0; r < 100; r++ {
		base := time.Duration(r) * interval
		b.timeout(dev, base)
		if r%50 == 0 {
			b.unmatched(dev, base+330*time.Second, 1)
		}
	}
	res := Match(b.recs, MatchOptionsForCycles(100))
	if res.Lookup(dev).Broadcast {
		t.Error("rare responder unexpectedly caught (paper documents these as false negatives)")
	}
}

func TestMatchOptionsForCycles(t *testing.T) {
	long := MatchOptionsForCycles(2000)
	if long.BroadcastMark != 0.2 {
		t.Errorf("long survey mark = %v, want the paper's 0.2", long.BroadcastMark)
	}
	short := MatchOptionsForCycles(12)
	if short.BroadcastMark >= 0.2 || short.BroadcastMark <= 0 {
		t.Errorf("short survey mark = %v", short.BroadcastMark)
	}
}

func TestBuildTable1Accounting(t *testing.T) {
	var b recBuilder
	// addrA: 2 matched + 1 delayed.
	b.matched(addrA, 0, 100*time.Millisecond)
	b.timeout(addrA, 660*time.Second)
	b.unmatched(addrA, 700*time.Second, 1)
	b.matched(addrA, 1320*time.Second, 120*time.Millisecond)
	// addrB: duplicate responder.
	b.matched(addrB, 0, 90*time.Millisecond)
	b.unmatched(addrB, 2*time.Second, 10)
	res := Match(b.recs, Options{})
	t1 := res.BuildTable1()
	if t1.SurveyPackets != 3 || t1.SurveyAddrs != 2 {
		t.Errorf("survey row: %d/%d", t1.SurveyPackets, t1.SurveyAddrs)
	}
	if t1.NaivePackets != 4 || t1.NaiveAddrs != 2 {
		t.Errorf("naive row: %d/%d", t1.NaivePackets, t1.NaiveAddrs)
	}
	if t1.DuplicateAddrs != 1 || t1.DuplicatePackets != 11 {
		t.Errorf("duplicate row: %d/%d", t1.DuplicatePackets, t1.DuplicateAddrs)
	}
	if t1.CombinedPackets != 3 || t1.CombinedAddrs != 1 {
		t.Errorf("combined row: %d/%d", t1.CombinedPackets, t1.CombinedAddrs)
	}
}

func TestUnmatchedLastOctets(t *testing.T) {
	blk := ipaddr.MustParse("7.7.7.0").Prefix()
	var b recBuilder
	// Probe .255 at t=100s (timed out), then an unmatched response from
	// .20 at t=101s: the histogram must attribute it to octet 255.
	b.timeout(blk.Addr(255), 100*time.Second)
	b.unmatched(blk.Addr(20), 101*time.Second, 1)
	// Probe .9 at t=200s, unmatched from .9 itself at 230s: octet 9.
	b.timeout(blk.Addr(9), 200*time.Second)
	b.unmatched(blk.Addr(9), 230*time.Second, 2)
	hist := UnmatchedLastOctets(b.recs)
	if hist[255] != 1 {
		t.Errorf("hist[255] = %d", hist[255])
	}
	if hist[9] != 2 {
		t.Errorf("hist[9] = %d (batch count must be honored)", hist[9])
	}
	var total uint64
	for _, v := range hist {
		total += v
	}
	if total != 3 {
		t.Errorf("total = %d", total)
	}
}

func TestDuplicateCCDF(t *testing.T) {
	var b recBuilder
	b.matched(addrA, 0, time.Millisecond).unmatched(addrA, 1*time.Second, 99)
	b.matched(addrB, 0, time.Millisecond) // only 1 response: excluded (needs >2)
	res := Match(b.recs, Options{})
	ccdf := res.DuplicateCCDF()
	if len(ccdf) != 1 || ccdf[0].Value != 100 {
		t.Errorf("CCDF = %+v", ccdf)
	}
}

func TestSamplesViews(t *testing.T) {
	var b recBuilder
	b.matched(addrA, 0, 100*time.Millisecond)
	b.timeout(addrA, 660*time.Second).unmatched(addrA, 670*time.Second, 1)
	res := Match(b.recs, Options{})
	sd := []AddrQuantiles{{addrA, stats.ComputeQuantiles([]time.Duration{100 * time.Millisecond})}}
	if got := res.SurveyDetectedQuantiles(); !slices.Equal(got, sd) {
		t.Errorf("survey-detected = %+v, want %+v", got, sd)
	}
	all := []AddrQuantiles{{addrA, stats.ComputeQuantiles([]time.Duration{100 * time.Millisecond, 10 * time.Second})}}
	if got := res.AddressQuantiles(true); !slices.Equal(got, all) {
		t.Errorf("combined = %+v, want %+v", got, all)
	}
}

// hasAddr reports whether q holds a percentile vector for a.
func hasAddr(q []AddrQuantiles, a ipaddr.Addr) bool {
	return slices.ContainsFunc(q, func(v AddrQuantiles) bool { return v.Addr == a })
}

// TestMatchParallelDeterministic verifies that Match's result does not
// depend on how many CPUs the process may use: it runs Match at GOMAXPROCS
// 1 and 8 and compares every address.
func TestMatchParallelDeterministic(t *testing.T) {
	var b recBuilder
	interval := 660 * time.Second
	for i := 0; i < 200; i++ {
		a := ipaddr.Addr(0x01000000 + uint32(i*7))
		for r := 0; r < 20; r++ {
			base := time.Duration(r) * interval
			switch i % 4 {
			case 0:
				b.matched(a, base, time.Duration(100+i)*time.Millisecond)
			case 1:
				b.timeout(a, base)
				b.unmatched(a, base+time.Duration(10+r)*time.Second, 1)
			case 2:
				b.timeout(a, base)
				b.unmatched(a, base+330*time.Second, 1)
			default:
				b.matched(a, base, 90*time.Millisecond)
				b.unmatched(a, base+2*time.Second, 7)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	seq := Match(b.recs, Options{})
	runtime.GOMAXPROCS(8)
	par := Match(b.recs, Options{})
	if seq.Len() != par.Len() {
		t.Fatalf("address counts differ: %d vs %d", seq.Len(), par.Len())
	}
	seq.Range(func(a ipaddr.Addr, sr *AddressResult) {
		pr := par.Lookup(a)
		if pr == nil {
			t.Fatalf("address %s missing from parallel result", a)
		}
		if len(sr.Matched) != len(pr.Matched) || len(sr.Delayed) != len(pr.Delayed) ||
			sr.MaxResponses != pr.MaxResponses || sr.Broadcast != pr.Broadcast ||
			sr.Duplicate != pr.Duplicate || sr.packets != pr.packets {
			t.Fatalf("address %s differs: %+v vs %+v", a, sr, pr)
		}
		for i := range sr.Delayed {
			if sr.Delayed[i] != pr.Delayed[i] {
				t.Fatalf("address %s delayed[%d] differs", a, i)
			}
		}
	})
}

// Property: Match never panics on arbitrary record streams, and its
// accounting stays internally consistent.
func TestMatchArbitraryStreamsProperty(t *testing.T) {
	type rawRec struct {
		Type  uint8
		Addr  uint16 // small space to force collisions
		WhenS uint16
		Count uint8
	}
	run := func(raws []rawRec) bool {
		var recs []survey.Record
		for _, r := range raws {
			rec := survey.Record{
				Type: survey.RecordType(r.Type%4) + survey.RecMatched,
				Addr: ipaddr.Addr(0x01000000 + uint32(r.Addr%64)),
				When: time.Duration(r.WhenS) * time.Second,
			}
			switch rec.Type {
			case survey.RecMatched:
				rec.RTT = time.Duration(r.Count) * 10 * time.Millisecond
			case survey.RecUnmatched:
				rec.RTT = time.Duration(r.Count%7) + 1
			}
			recs = append(recs, rec)
		}
		res := Match(recs, Options{})
		ok := true
		res.Range(func(_ ipaddr.Addr, ar *AddressResult) {
			if len(ar.Delayed) > ar.Probes {
				ok = false // more recovered samples than probes
			}
			for _, d := range ar.Delayed {
				if d < 0 {
					ok = false
				}
			}
			if ar.MaxResponses < 0 {
				ok = false
			}
		})
		if !ok {
			return false
		}
		t1 := res.BuildTable1()
		if t1.NaivePackets < t1.SurveyPackets || t1.NaiveAddrs < t1.SurveyAddrs {
			return false // adding unmatched responses cannot shrink the data
		}
		if t1.CombinedPackets > t1.NaivePackets || t1.CombinedAddrs > t1.NaiveAddrs {
			return false // filtering cannot grow it
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
