package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// Table1 reproduces the paper's Table 1: how adding unmatched responses to
// survey-detected responses changes packet and address counts, and how much
// the filters remove.
type Table1 struct {
	SurveyPackets, SurveyAddrs       uint64
	NaivePackets, NaiveAddrs         uint64
	BroadcastPackets, BroadcastAddrs uint64
	DuplicatePackets, DuplicateAddrs uint64
	CombinedPackets, CombinedAddrs   uint64
}

// BuildTable1 computes the Table 1 accounting from a match result.
func (r *Result) BuildTable1() Table1 {
	var t Table1
	r.Range(func(_ ipaddr.Addr, ar *AddressResult) {
		matched, delayed := uint64(len(ar.Matched)), uint64(len(ar.Delayed))
		if matched > 0 {
			t.SurveyPackets += matched
			t.SurveyAddrs++
		}
		if matched+delayed > 0 {
			t.NaivePackets += matched + delayed
			t.NaiveAddrs++
		}
		switch {
		case ar.Broadcast:
			t.BroadcastPackets += ar.packets
			t.BroadcastAddrs++
		case ar.Duplicate:
			t.DuplicatePackets += ar.packets
			t.DuplicateAddrs++
		}
		if !ar.Discarded() && matched+delayed > 0 {
			t.CombinedPackets += matched + delayed
			t.CombinedAddrs++
		}
	})
	return t
}

// BroadcastResponders lists addresses the EWMA filter marked.
func (r *Result) BroadcastResponders() []ipaddr.Addr {
	return r.responders(func(v *Verdict) bool { return v.Broadcast })
}

// DuplicateResponders lists addresses exceeding the duplicate threshold
// (and not already marked broadcast), mirroring the paper's mutually
// exclusive discard accounting.
func (r *Result) DuplicateResponders() []ipaddr.Addr {
	return r.responders(func(v *Verdict) bool { return v.Duplicate && !v.Broadcast })
}

// responders lists, in ascending order, the addresses whose verdict is
// marked.
func (r *Result) responders(marked func(*Verdict) bool) []ipaddr.Addr {
	var out []ipaddr.Addr
	r.Range(func(a ipaddr.Addr, ar *AddressResult) {
		if marked(&ar.Verdict) {
			out = append(out, a)
		}
	})
	return out
}

// Format renders Table 1 in the paper's layout.
func (t Table1) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %15s %12s\n", "", "Packets", "Addresses")
	fmt.Fprintf(&b, "%-22s %15d %12d\n", "Survey-detected", t.SurveyPackets, t.SurveyAddrs)
	fmt.Fprintf(&b, "%-22s %15d %12d\n", "Naive matching", t.NaivePackets, t.NaiveAddrs)
	fmt.Fprintf(&b, "%-22s %15d %12d\n", "Broadcast responses", t.BroadcastPackets, t.BroadcastAddrs)
	fmt.Fprintf(&b, "%-22s %15d %12d\n", "Duplicate responses", t.DuplicatePackets, t.DuplicateAddrs)
	fmt.Fprintf(&b, "%-22s %15d %12d\n", "Survey + Delayed", t.CombinedPackets, t.CombinedAddrs)
	return b.String()
}

// TimeoutMatrix builds Table 2 from per-address quantiles.
func TimeoutMatrix(q []AddrQuantiles) stats.TimeoutMatrix {
	vec := make([]stats.Quantiles, len(q))
	for i, v := range q {
		vec[i] = v.Quantiles
	}
	return stats.BuildTimeoutMatrix(vec)
}

// PercentileCDF builds, for each standard percentile level, the CDF over
// addresses of that per-address percentile latency — the curves of
// Figures 1 and 6. The result maps the percentile level to CDF points.
func PercentileCDF(q []AddrQuantiles, maxPoints int) map[float64][]stats.CDFPoint {
	out := make(map[float64][]stats.CDFPoint, len(stats.StandardPercentiles))
	for _, p := range stats.StandardPercentiles {
		vals := make([]time.Duration, 0, len(q))
		for _, v := range q {
			vals = append(vals, v.At(p))
		}
		out[p] = stats.CDF(vals, maxPoints)
	}
	return out
}

// DuplicateCCDF builds Figure 5: the CCDF of the maximum responses per
// single echo request, over addresses that ever sent more than two
// responses to one request.
func (r *Result) DuplicateCCDF() []struct{ Value, Frac float64 } {
	var maxes []float64
	r.Range(func(_ ipaddr.Addr, ar *AddressResult) {
		if ar.MaxResponses > 2 {
			maxes = append(maxes, float64(ar.MaxResponses))
		}
	})
	return stats.CCDF(maxes)
}

// FracAddrsAbove returns the fraction of addresses whose percentile-p
// latency exceeds the threshold — e.g. the share of addresses for which a
// 5-second timeout yields at least 5% false loss.
func FracAddrsAbove(q []AddrQuantiles, p float64, threshold time.Duration) float64 {
	if len(q) == 0 {
		return 0
	}
	n := 0
	for _, v := range q {
		if v.At(p) > threshold {
			n++
		}
	}
	return float64(n) / float64(len(q))
}

// UnmatchedLastOctetHist is Figure 3's histogram: count of unmatched
// responses by the last octet of the most recently probed address in the
// responder's /24.
type UnmatchedLastOctetHist [256]uint64

// UnmatchedLastOctets builds Figure 3 from a record stream: for every
// unmatched response, find the most recent probe (matched or timed out)
// sent to *any* address of the same /24, and count the response under that
// probe's last octet. Spikes at broadcast-like octets reveal broadcast
// responses; the flat residue across all octets is genuine delay.
func UnmatchedLastOctets(records []survey.Record) UnmatchedLastOctetHist {
	blocks := make(map[ipaddr.Prefix24][]probeAt)
	for _, rec := range records {
		if rec.Type == survey.RecMatched || rec.Type == survey.RecTimeout {
			p := rec.Addr.Prefix()
			blocks[p] = append(blocks[p], probeAt{at: rec.When, oct: rec.Addr.LastOctet()})
		}
	}
	for _, ps := range blocks {
		sort.Slice(ps, func(i, j int) bool { return ps[i].at < ps[j].at })
	}
	var hist UnmatchedLastOctetHist
	for _, rec := range records {
		if rec.Type != survey.RecUnmatched {
			continue
		}
		ps := blocks[rec.Addr.Prefix()]
		// Binary search: last probe with at <= arrival.
		lo, hi := 0, len(ps)
		for lo < hi {
			mid := (lo + hi) / 2
			if ps[mid].at <= rec.When {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			continue
		}
		count := uint64(rec.RTT)
		if count < 1 {
			count = 1
		}
		hist[ps[lo-1].oct] += count
	}
	return hist
}

// probeAt is a (time, last octet) probe event within one /24.
type probeAt struct {
	at  time.Duration
	oct byte
}
