package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
)

// The paper's §6.2 terminology: addresses whose scan RTT exceeds one second
// are "turtles"; those exceeding 100 seconds are "sleepy-turtles".
const (
	TurtleThreshold       = time.Second
	SleepyTurtleThreshold = 100 * time.Second
)

// Tier selects which of the two thresholds a ranking counts addresses
// above.
type Tier uint8

const (
	Turtles       Tier = iota // above TurtleThreshold (Tables 4 and 5)
	SleepyTurtles             // above SleepyTurtleThreshold (Table 6)
	numTiers
)

// TurtleTally is one /24's showing in one scan: its responding addresses,
// and how many of them answered above each tier's threshold.
type TurtleTally struct {
	Responders uint32
	Above      [numTiers]uint32
}

// ScanTallies is what the rankings need of one scan: a TurtleTally per /24
// with a responder, so its size follows the /24s rather than the addresses.
type ScanTallies map[ipaddr.Prefix24]TurtleTally

// Add counts one responding address with its RTT.
func (s ScanTallies) Add(a ipaddr.Addr, rtt time.Duration) {
	p := a.Prefix()
	t := s[p]
	t.Responders++
	if rtt > TurtleThreshold {
		t.Above[Turtles]++
	}
	if rtt > SleepyTurtleThreshold {
		t.Above[SleepyTurtles]++
	}
	s[p] = t
}

// Merge adds o's tallies into s.
func (s ScanTallies) Merge(o ScanTallies) {
	for p, t := range o {
		m := s[p]
		m.Responders += t.Responders
		for i, n := range t.Above {
			m.Above[i] += n
		}
		s[p] = m
	}
}

// ScanCount is one AS's (or continent's) showing in one scan.
type ScanCount struct {
	Count  uint64  // addresses above the threshold
	Probed uint64  // addresses that responded at all
	Pct    float64 // Count/Probed * 100
	Rank   int     // 1-based rank within the scan (by Count)
}

// ASRank is one row of Tables 4 or 6: an AS's high-latency address counts
// across several scans, ordered by the cross-scan sum.
type ASRank struct {
	AS      ipmeta.AS
	PerScan []ScanCount
	Total   uint64
}

// RankASes builds the Table 4/6 ranking: for each scan, count per AS the
// responders and those above the tier's threshold, rank ASes within each
// scan, then order by the cross-scan total and return the top n (or all,
// if n <= 0).
func RankASes(scans []ScanTallies, db *ipmeta.DB, tier Tier, n int) []ASRank {
	type key = uint32
	asInfo := make(map[key]ipmeta.AS)
	counts := make(map[key][]ScanCount)
	ensure := func(as ipmeta.AS) []ScanCount {
		if _, ok := asInfo[as.ASN]; !ok {
			asInfo[as.ASN] = as
			counts[as.ASN] = make([]ScanCount, len(scans))
		}
		return counts[as.ASN]
	}
	for si, scan := range scans {
		for p, t := range scan {
			as, ok := db.LookupPrefix(p)
			if !ok {
				continue
			}
			sc := ensure(as)
			sc[si].Probed += uint64(t.Responders)
			sc[si].Count += uint64(t.Above[tier])
		}
		// Rank within the scan.
		asns := make([]key, 0, len(counts))
		for asn := range counts {
			asns = append(asns, asn)
		}
		sort.Slice(asns, func(i, j int) bool {
			ci, cj := counts[asns[i]][si].Count, counts[asns[j]][si].Count
			if ci != cj {
				return ci > cj
			}
			return asns[i] < asns[j]
		})
		for rank, asn := range asns {
			sc := counts[asn]
			sc[si].Rank = rank + 1
			if sc[si].Probed > 0 {
				sc[si].Pct = 100 * float64(sc[si].Count) / float64(sc[si].Probed)
			}
		}
	}

	out := make([]ASRank, 0, len(counts))
	for asn, sc := range counts {
		r := ASRank{AS: asInfo[asn], PerScan: sc}
		for _, c := range sc {
			r.Total += c.Count
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].AS.ASN < out[j].AS.ASN
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// FormatASRanks renders rows in the paper's Table 4/6 layout.
func FormatASRanks(rows []ASRank) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-28s", "ASN", "Owner")
	for i := range rowsScans(rows) {
		fmt.Fprintf(&b, "  %10s %6s %4s", fmt.Sprintf("scan%d", i+1), "%", "rank")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %-28s", r.AS.ASN, truncate(r.AS.Owner, 28))
		for _, c := range r.PerScan {
			fmt.Fprintf(&b, "  %10d %6.1f %4d", c.Count, c.Pct, c.Rank)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func rowsScans(rows []ASRank) []ScanCount {
	if len(rows) == 0 {
		return nil
	}
	return rows[0].PerScan
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// ContinentRank is one row of Table 5.
type ContinentRank struct {
	Continent ipmeta.Continent
	PerScan   []ScanCount
	Total     uint64
}

// RankContinents builds Table 5: addresses above the tier's threshold per
// continent per scan.
func RankContinents(scans []ScanTallies, db *ipmeta.DB, tier Tier) []ContinentRank {
	rows := make([]ContinentRank, ipmeta.NumContinents)
	for c := range rows {
		rows[c].Continent = ipmeta.Continent(c)
		rows[c].PerScan = make([]ScanCount, len(scans))
	}
	for si, scan := range scans {
		for p, t := range scan {
			as, ok := db.LookupPrefix(p)
			if !ok {
				continue
			}
			sc := &rows[as.Continent].PerScan[si]
			sc.Probed += uint64(t.Responders)
			sc.Count += uint64(t.Above[tier])
		}
		for c := range rows {
			sc := &rows[c].PerScan[si]
			if sc.Probed > 0 {
				sc.Pct = 100 * float64(sc.Count) / float64(sc.Probed)
			}
		}
	}
	for c := range rows {
		for _, sc := range rows[c].PerScan {
			rows[c].Total += sc.Count
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Total > rows[j].Total })
	return rows
}

// FormatContinentRanks renders Table 5.
func FormatContinentRanks(rows []ContinentRank) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", "Continent")
	for i := 0; i < len(rowsContinentScans(rows)); i++ {
		fmt.Fprintf(&b, "  %10s %6s", fmt.Sprintf("scan%d", i+1), "%")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s", r.Continent)
		for _, c := range r.PerScan {
			fmt.Fprintf(&b, "  %10d %6.1f", c.Count, c.Pct)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func rowsContinentScans(rows []ContinentRank) []ScanCount {
	if len(rows) == 0 {
		return nil
	}
	return rows[0].PerScan
}

// CellularShare reports what fraction of the top-n ranked ASes are cellular
// or mixed-cellular — the paper's headline attribution claim.
func CellularShare(rows []ASRank) float64 {
	if len(rows) == 0 {
		return 0
	}
	n := 0
	for _, r := range rows {
		if r.AS.Type == ipmeta.Cellular || r.AS.Type == ipmeta.Mixed {
			n++
		}
	}
	return float64(n) / float64(len(rows))
}
