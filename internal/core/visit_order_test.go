package core_test

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"timeouts/internal/advisor"
	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/survey"
)

// visitRounds is how many survey rounds orderStreams builds per address.
const visitRounds = 12

// orderStreams builds one record stream per address, split into rounds, over
// three adjacent /24s (every octet) plus strays at prefix 0, prefix 0xffffff
// and one far prefix. The rounds cover every record class the matcher and
// the advisor's ingest tell apart: matched probes, timeouts recovered by a
// delayed response, a stable late responder the broadcast filter flags,
// duplicates, ICMP errors and lost probes.
func orderStreams() map[ipaddr.Addr][][]survey.Record {
	const interval = 660 * time.Second
	var addrs []ipaddr.Addr
	for p := ipaddr.Prefix24(0x0a0b0c); p < 0x0a0b0f; p++ {
		for o := 0; o < 256; o++ {
			addrs = append(addrs, p.Addr(byte(o)))
		}
	}
	for _, p := range []ipaddr.Prefix24{0, 0xffffff, 0x5f0003} {
		addrs = append(addrs, p.Addr(3), p.Addr(200))
	}
	out := make(map[ipaddr.Addr][][]survey.Record, len(addrs))
	for i, a := range addrs {
		rounds := make([][]survey.Record, visitRounds)
		for r := range rounds {
			send := time.Duration(r)*interval + time.Duration(a.LastOctet())*time.Second
			matched := survey.Record{Type: survey.RecMatched, Addr: a, When: send, RTT: time.Duration(80+i%50+r) * time.Millisecond}
			timeout := survey.Record{Type: survey.RecTimeout, Addr: a, When: survey.TruncSecond(send)}
			late := func(after time.Duration, count int) survey.Record {
				return survey.Record{Type: survey.RecUnmatched, Addr: a, When: survey.TruncSecond(send + after), RTT: time.Duration(count)}
			}
			var recs []survey.Record
			switch i % 7 {
			case 0:
				recs = append(recs, matched)
			case 1:
				recs = append(recs, timeout, late(time.Duration(8+(r*13+i)%50)*time.Second, 1))
			case 2:
				recs = append(recs, timeout, late(330*time.Second, 1))
			case 3:
				recs = append(recs, matched, late(2*time.Second, 6))
			case 4:
				if r == 0 {
					recs = append(recs, survey.Record{Type: survey.RecError, Addr: a, When: survey.TruncSecond(send)})
				}
				recs = append(recs, matched)
			case 5:
				recs = append(recs, timeout)
			default:
				recs = append(recs, matched)
				if r%4 == 1 {
					recs = append(recs, late(4*time.Second, 2))
				}
			}
			rounds[r] = recs
		}
		out[a] = rounds
	}
	return out
}

// visitOrders interleaves the per-address streams three ways, each keeping
// every address's own record order: octet-major, the order a survey visits
// addresses in (one last octet in every /24 per slot); /24-major; and a
// seeded random interleaving of single records.
func visitOrders(streams map[ipaddr.Addr][][]survey.Record) map[string][]survey.Record {
	var prefixes []ipaddr.Prefix24
	for a := range streams {
		if !slices.Contains(prefixes, a.Prefix()) {
			prefixes = append(prefixes, a.Prefix())
		}
	}
	slices.Sort(prefixes)
	var octetMajor, prefixMajor []survey.Record
	for r := 0; r < visitRounds; r++ {
		for o := 0; o < 256; o++ {
			for _, p := range prefixes {
				if rounds, ok := streams[p.Addr(byte(o))]; ok {
					octetMajor = append(octetMajor, rounds[r]...)
				}
			}
		}
		for _, p := range prefixes {
			for o := 0; o < 256; o++ {
				if rounds, ok := streams[p.Addr(byte(o))]; ok {
					prefixMajor = append(prefixMajor, rounds[r]...)
				}
			}
		}
	}

	// Random: repeatedly emit the next record of a random address that has
	// any left.
	var pending [][]survey.Record
	for _, p := range prefixes {
		for o := 0; o < 256; o++ {
			if rounds, ok := streams[p.Addr(byte(o))]; ok {
				pending = append(pending, slices.Concat(rounds...))
			}
		}
	}
	rng := rand.New(rand.NewPCG(19, 0x6f72646572))
	var random []survey.Record
	for len(pending) > 0 {
		i := rng.IntN(len(pending))
		random = append(random, pending[i][0])
		if pending[i] = pending[i][1:]; len(pending[i]) == 0 {
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		}
	}
	return map[string][]survey.Record{"octet-major": octetMajor, "prefix-major": prefixMajor, "random": random}
}

// TestResultsIndependentOfVisitOrder feeds the matcher and the advisor's
// store the same per-address record streams in three interleavings. Their
// state is per address, and Blocks lays its cells out in the order addresses
// are first seen, so the interleaving may change the layout and nothing
// else: every address's Result, both reports, the advice snapshot and the
// checkpoint must be identical.
func TestResultsIndependentOfVisitOrder(t *testing.T) {
	orders := visitOrders(orderStreams())
	type outcome struct {
		res                          *core.Result
		report, snapshot, checkpoint []byte
	}
	run := func(name string) outcome {
		recs := orders[name]
		res := core.Match(recs, core.MatchOptionsForCycles(visitRounds))
		if res.OutOfOrder != 0 {
			t.Fatalf("%s: %d addresses out of emission order", name, res.OutOfOrder)
		}
		report := core.RenderReport(res, false) + core.RenderReport(res, true)

		st := advisor.NewStore()
		st.SetClock(func() int64 { return 1 })
		for _, rec := range recs {
			st.Observe(rec)
		}
		var snap, ckpt bytes.Buffer
		if err := st.Snapshot(1).WriteJSON(&snap); err != nil {
			t.Fatalf("%s: WriteJSON: %v", name, err)
		}
		if err := advisor.EncodeCheckpoint(&ckpt, st, 1); err != nil {
			t.Fatalf("%s: EncodeCheckpoint: %v", name, err)
		}
		return outcome{res, []byte(report), snap.Bytes(), ckpt.Bytes()}
	}

	ref := run("octet-major")
	var broadcast, dup, errs, delayed int
	for _, ar := range ref.res.Addr {
		if ar.Broadcast {
			broadcast++
		}
		if ar.Duplicate {
			dup++
		}
		if ar.ErrorSeen {
			errs++
		}
		delayed += len(ar.Delayed)
	}
	if broadcast == 0 || dup == 0 || errs == 0 || delayed == 0 {
		t.Fatalf("degenerate streams: %d broadcast, %d duplicate, %d error addresses, %d delayed samples",
			broadcast, dup, errs, delayed)
	}
	for _, name := range []string{"prefix-major", "random"} {
		got := run(name)
		if len(got.res.Addr) != len(ref.res.Addr) {
			t.Fatalf("%s: %d addresses, octet-major has %d", name, len(got.res.Addr), len(ref.res.Addr))
		}
		for a, want := range ref.res.Addr {
			if !reflect.DeepEqual(got.res.Addr[a], want) {
				t.Fatalf("%s: %s = %+v, octet-major gives %+v", name, a, got.res.Addr[a], want)
			}
		}
		for _, part := range []struct {
			what      string
			got, want []byte
		}{
			{"RenderReport", got.report, ref.report},
			{"snapshot WriteJSON", got.snapshot, ref.snapshot},
			{"EncodeCheckpoint", got.checkpoint, ref.checkpoint},
		} {
			if !bytes.Equal(part.got, part.want) {
				t.Errorf("%s: %s bytes differ from octet-major", name, part.what)
			}
		}
	}
}
