package core_test

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"timeouts/internal/advisor"
	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// oracleAddr is one address's outcome under the oracle matcher.
type oracleAddr struct {
	probes    []oracleProbe
	unmatched []oracleResponse

	matched, delayed []time.Duration
	nProbes, maxResp int
	broadcast, dup   bool
	errorSeen        bool
	packets          uint64
}

type oracleProbe struct {
	send, rtt         time.Duration
	matched, consumed bool
	resp              int
}

type oracleResponse struct {
	at    time.Duration
	count int
}

// oracleMatch is the matcher as it stood before the attribution kernel:
// every probe of an address kept in a sorted slice, each unmatched response
// credited to the newest probe sent strictly before it by a forward scan.
// It is the reference Match and the kernel are checked against.
func oracleMatch(records []survey.Record, opt core.Options) map[ipaddr.Addr]*oracleAddr {
	out := make(map[ipaddr.Addr]*oracleAddr)
	get := func(a ipaddr.Addr) *oracleAddr {
		if out[a] == nil {
			out[a] = &oracleAddr{}
		}
		return out[a]
	}
	for _, rec := range records {
		switch rec.Type {
		case survey.RecMatched:
			st := get(rec.Addr)
			st.probes = append(st.probes, oracleProbe{send: rec.When, rtt: rec.RTT, matched: true, resp: 1})
		case survey.RecTimeout:
			st := get(rec.Addr)
			st.probes = append(st.probes, oracleProbe{send: rec.When})
		case survey.RecUnmatched:
			st := get(rec.Addr)
			count := int(rec.RTT)
			if count < 1 {
				count = 1
			}
			st.unmatched = append(st.unmatched, oracleResponse{at: rec.When, count: count})
		case survey.RecError:
			get(rec.Addr).errorSeen = true
		}
	}
	for _, st := range out {
		sort.Slice(st.probes, func(i, j int) bool { return st.probes[i].send < st.probes[j].send })
		sort.Slice(st.unmatched, func(i, j int) bool { return st.unmatched[i].at < st.unmatched[j].at })
		st.nProbes = len(st.probes)
		for _, p := range st.probes {
			if p.matched {
				st.matched = append(st.matched, p.rtt)
			}
		}
		ew := stats.EWMA{Alpha: opt.BroadcastAlpha}
		lastRound := int64(-10)
		var lastLat time.Duration
		pi := 0
		for _, um := range st.unmatched {
			for pi < len(st.probes) && st.probes[pi].send < um.at {
				pi++
			}
			if pi == 0 {
				continue
			}
			p := &st.probes[pi-1]
			p.resp += um.count
			if !p.matched && !p.consumed {
				p.consumed = true
				lat := um.at - p.send
				st.delayed = append(st.delayed, lat)
				if lat >= opt.BroadcastMinLat {
					round := int64(um.at / opt.Interval)
					d := lat - lastLat
					if d < 0 {
						d = -d
					}
					if round == lastRound+1 && d <= opt.BroadcastTol {
						ew.Observe(1)
					} else {
						ew.Observe(0)
					}
					lastRound, lastLat = round, lat
				}
			}
		}
		st.broadcast = ew.Max() > opt.BroadcastMark
		for _, p := range st.probes {
			st.maxResp = max(st.maxResp, p.resp)
			st.packets += uint64(p.resp)
		}
		st.dup = st.maxResp > opt.DuplicateMax
	}
	return out
}

// checkOracle compares Match's result with the oracle's over the same
// records, field for field, sample order included. Range must visit exactly
// the oracle's addresses, in ascending order, each with the result Lookup
// returns: the same pointer for an address that answered, an equal copy for
// a quiet one. A flagged address is exempt only when allowFlagged is set,
// and Result must count the flagged addresses.
func checkOracle(t *testing.T, res *core.Result, want map[ipaddr.Addr]*oracleAddr, allowFlagged bool) {
	t.Helper()
	if res.Len() != len(want) {
		t.Fatalf("Match has %d addresses, oracle %d", res.Len(), len(want))
	}
	visited, flagged := 0, 0
	prev := ipaddr.Addr(0)
	res.Range(func(a ipaddr.Addr, g *core.AddressResult) {
		w := want[a]
		if w == nil {
			t.Fatalf("%s in Match, not in the oracle", a)
		}
		if visited > 0 && a <= prev {
			t.Fatalf("Range visits %s after %s", a, prev)
		}
		answered := len(w.unmatched) > 0 || slices.ContainsFunc(w.probes, func(p oracleProbe) bool { return p.matched })
		if l := res.Lookup(a); answered && l != g || !answered && !reflect.DeepEqual(*l, *g) {
			t.Fatalf("%s: Lookup and Range disagree", a)
		}
		visited, prev = visited+1, a
		if g.OutOfOrder {
			flagged++
			if allowFlagged {
				return
			}
			t.Fatalf("%s flagged out of emission order", a)
		}
		if !slices.Equal(g.Matched, w.matched) || !slices.Equal(g.Delayed, w.delayed) ||
			g.Probes != w.nProbes || g.MaxResponses != w.maxResp || g.Broadcast != w.broadcast ||
			g.Duplicate != w.dup || g.ErrorSeen != w.errorSeen || g.ResponsePackets() != w.packets {
			t.Fatalf("%s: Match %+v, oracle matched=%v delayed=%v probes=%d maxResp=%d bc=%v dup=%v err=%v packets=%d",
				a, g, w.matched, w.delayed, w.nProbes, w.maxResp, w.broadcast, w.dup, w.errorSeen, w.packets)
		}
	})
	if visited != len(want) {
		t.Fatalf("Range visited %d addresses, oracle has %d", visited, len(want))
	}
	if res.OutOfOrder != flagged {
		t.Fatalf("Result counts %d addresses out of order, %d are flagged", res.OutOfOrder, flagged)
	}
}

// fuzzRec is one record in the fuzzer's five-byte encoding: type, address
// index, send or arrival second (big-endian uint16), and a matched RTT in
// 10 ms units or an unmatched packet count.
type fuzzRec struct {
	typ, addr byte
	when      uint16
	arg       byte
}

// fuzzAddr maps an address index onto twelve addresses, four in each of
// three /24s, so records collide per address and per block.
func fuzzAddr(i byte) ipaddr.Addr { return ipaddr.Make(10, 0, i%3, 1+(i/3)%4) }

func encodeFuzz(recs ...fuzzRec) []byte {
	var b []byte
	for _, r := range recs {
		b = append(b, r.typ, r.addr, byte(r.when>>8), byte(r.when), r.arg)
	}
	return b
}

func decodeFuzz(data []byte) []survey.Record {
	var recs []survey.Record
	for ; len(data) >= 5; data = data[5:] {
		rec := survey.Record{
			Type: survey.RecMatched + survey.RecordType(data[0]%4),
			Addr: fuzzAddr(data[1]),
			When: time.Duration(uint16(data[2])<<8|uint16(data[3])) * time.Second,
		}
		switch rec.Type {
		case survey.RecMatched:
			rec.RTT = time.Duration(data[4]) * 10 * time.Millisecond
		case survey.RecUnmatched:
			rec.RTT = time.Duration(data[4] % 8)
		}
		recs = append(recs, rec)
	}
	return recs
}

// emissionOrder puts records in an order a survey can emit them, the order
// the matcher checks and the advisor's store assumes: per address, one probe
// per send instant, in time order. A response recorded on a probe's send
// instant comes after that probe, so the kernel's strict boundary, not the
// order, has to keep the response off it.
func emissionOrder(recs []survey.Record) []survey.Record {
	type sendKey struct {
		a ipaddr.Addr
		t time.Duration
	}
	seen := make(map[sendKey]bool)
	var out []survey.Record
	for _, rec := range recs {
		if rec.Type == survey.RecMatched || rec.Type == survey.RecTimeout {
			k := sendKey{rec.Addr, rec.When}
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		out = append(out, rec)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].When != out[j].When {
			return out[i].When < out[j].When
		}
		return out[i].Type != survey.RecUnmatched && out[j].Type == survey.RecUnmatched
	})
	return out
}

// FuzzAttribution checks the matcher and the advisor's store, the attribution
// kernel's two users, against the oracle. On arbitrary record streams every
// address Match leaves unflagged equals the oracle field for field, sample
// order included. On the same records in emission order nothing is flagged,
// every address equals the oracle, and the advisor's store takes exactly
// Match's matched plus delayed samples.
func FuzzAttribution(f *testing.F) {
	const interval = 660
	// A response recorded on the next probe's send second belongs to the
	// earlier, timed-out probe.
	f.Add(encodeFuzz(
		fuzzRec{typ: 1, addr: 0, when: 0},
		fuzzRec{typ: 1, addr: 0, when: interval},
		fuzzRec{typ: 2, addr: 0, when: interval, arg: 1},
	))
	// Two addresses of one /24, interleaved: a delayed responder and a
	// duplicate responder, plus a stray response and an error elsewhere.
	var shared []fuzzRec
	for r := uint16(0); r < 6; r++ {
		t := r * interval
		shared = append(shared,
			fuzzRec{typ: 1, addr: 0, when: t},
			fuzzRec{typ: 0, addr: 3, when: t, arg: 12},
			fuzzRec{typ: 2, addr: 0, when: t + 20 + r, arg: 1},
			fuzzRec{typ: 2, addr: 3, when: t + 2, arg: 6},
		)
	}
	shared = append(shared, fuzzRec{typ: 2, addr: 1, when: 7, arg: 1}, fuzzRec{typ: 3, addr: 2, when: 9})
	f.Add(encodeFuzz(shared...))
	// A broadcast responder: the same half-interval latency every round.
	var bcast []fuzzRec
	for r := uint16(0); r < 8; r++ {
		bcast = append(bcast,
			fuzzRec{typ: 1, addr: 4, when: r * interval},
			fuzzRec{typ: 2, addr: 4, when: r*interval + interval/2, arg: 1})
	}
	f.Add(encodeFuzz(bcast...))
	// Probes sharing a send instant break emission order, so Match flags
	// the address; in emission order only one probe per instant remains.
	var ties []fuzzRec
	for i := byte(0); i < 13; i++ {
		ties = append(ties, fuzzRec{typ: i / 2 % 2, addr: 5, when: 100 + uint16(i%2), arg: 20 - i})
	}
	ties = append(ties, fuzzRec{typ: 2, addr: 5, when: 130, arg: 1})
	f.Add(encodeFuzz(ties...))

	opt := core.MatchOptionsForCycles(8)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeFuzz(data)
		checkOracle(t, core.Match(recs, opt), oracleMatch(recs, opt), true)

		ordered := emissionOrder(recs)
		res := core.Match(ordered, opt)
		checkOracle(t, res, oracleMatch(ordered, opt), false)
		st := advisor.NewStore()
		st.SetClock(func() int64 { return 1 })
		for _, rec := range ordered {
			st.Observe(rec)
		}
		var samples uint64
		res.Range(func(_ ipaddr.Addr, ar *core.AddressResult) {
			samples += uint64(len(ar.Matched) + len(ar.Delayed))
		})
		if st.Samples() != samples {
			t.Fatalf("store took %d samples, Match %d", st.Samples(), samples)
		}
	})
}
