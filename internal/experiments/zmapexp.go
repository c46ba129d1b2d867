package experiments

import (
	"fmt"
	"strings"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/stats"
)

// Fig2 — last octets of destinations that triggered responses from a
// different address in the same /24: broadcast addresses have last octets
// whose trailing bits are all ones or zeros.
func (l *Lab) Fig2() (Report, error) {
	scans, err := l.Scans(1)
	if err != nil {
		return Report{}, err
	}
	f := scans[0].Broadcast
	var bcastLike, other uint64
	var nOther int
	for o := 0; o < 256; o++ {
		n := uint64(f.ProbedBroadcast[o])
		if ipaddr.BroadcastLikeOctet(byte(o)) {
			bcastLike += n
		} else {
			other += n
			nOther++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "broadcast responders found: %d\n", len(f.Responders))
	fmt.Fprintf(&b, "probed dsts triggering cross-address responses, by last octet:\n")
	fmt.Fprintf(&b, "  255:%d  0:%d  127:%d  128:%d  63:%d  191:%d  64:%d  192:%d\n",
		f.ProbedBroadcast[255], f.ProbedBroadcast[0], f.ProbedBroadcast[127], f.ProbedBroadcast[128],
		f.ProbedBroadcast[63], f.ProbedBroadcast[191], f.ProbedBroadcast[64], f.ProbedBroadcast[192])
	fmt.Fprintf(&b, "  broadcast-like octets: %d, all other octets: %d\n", bcastLike, other)
	return Report{
		ID:    "fig2",
		Title: "Zmap-discovered broadcast addresses have power-of-two host parts",
		Body:  b.String(),
		Metrics: []Metric{
			{"cross-address triggers at broadcast-like octets", "nearly all (spikes)", fmt.Sprintf("%d", bcastLike)},
			{"cross-address triggers at octets ending 01/10", "very few", fmt.Sprintf("%d", other)},
		},
	}, nil
}

// Tab3 — the scan inventory: every scan recovers a consistent responder
// count regardless of time of day or day of week.
func (l *Lab) Tab3() (Report, error) {
	scans, err := l.Scans(l.Scale.ZmapScans)
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %14s %12s %12s\n", "scan", "start", "probes", "responders")
	min, max := -1, -1
	for i, sc := range scans {
		n := len(sc.RTTPercentiles())
		if min < 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
		fmt.Fprintf(&b, "%6d %14s %12d %12d\n", i+1,
			time.Duration(sc.Cfg.Start).Round(time.Minute), sc.ProbesSent, n)
	}
	spread := 0.0
	if max > 0 {
		spread = float64(max-min) / float64(max)
	}
	return Report{
		ID:    "tab3",
		Title: "Zmap scan inventory: responder counts are stable across scans",
		Body:  b.String(),
		Metrics: []Metric{
			{"responder-count spread across scans", "339M-371M (~9%)", fmtPct(spread)},
		},
	}, nil
}

// Fig7 — the RTT distribution per scan: ~5% of addresses above 1 s in every
// scan, ~0.1% above 75 s, nearly identical curves.
func (l *Lab) Fig7() (Report, error) {
	scans, err := l.Scans(l.Scale.ZmapScans)
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %10s %10s %10s %10s\n", "scan", "median", ">1s", ">75s", "p99.9")
	minT, maxT := 1.0, 0.0
	var medSum time.Duration
	for i, sc := range scans {
		rtts := sc.RTTPercentiles()
		if len(rtts) == 0 {
			continue
		}
		med := stats.Percentile(rtts, 50)
		over1 := stats.FracAbove(rtts, time.Second)
		over75 := stats.FracAbove(rtts, 75*time.Second)
		p999 := stats.Percentile(rtts, 99.9)
		medSum += med
		if over1 < minT {
			minT = over1
		}
		if over1 > maxT {
			maxT = over1
		}
		fmt.Fprintf(&b, "%6d %10s %9.2f%% %9.3f%% %10s\n", i+1, med.Round(time.Millisecond),
			100*over1, 100*over75, p999.Round(time.Second))
	}
	return Report{
		ID:    "fig7",
		Title: "Per-scan RTT distributions: a consistent slow tail",
		Body:  b.String(),
		Metrics: []Metric{
			{"median RTT per scan", "<250ms", (medSum / time.Duration(len(scans))).Round(time.Millisecond).String()},
			{"addresses above 1s, per scan", "~5% in every scan", fmt.Sprintf("%.2f%%..%.2f%%", 100*minT, 100*maxT)},
			{"turtle-share stability across scans", "nearly identical", fmt.Sprintf("spread %.2fpp", 100*(maxT-minT))},
		},
	}, nil
}

// turtleScans returns the first n scans' per-/24 turtle tallies, the
// input of the ranking analyses.
func (l *Lab) turtleScans(n int) ([]core.ScanTallies, error) {
	scans, err := l.Scans(n)
	if err != nil {
		return nil, err
	}
	out := make([]core.ScanTallies, len(scans))
	for i, sc := range scans {
		out[i] = sc.Turtles
	}
	return out, nil
}

// Tab4 — ASes with the most addresses above 1 s: cellular carriers, with
// the top AS roughly double the next.
func (l *Lab) Tab4() (Report, error) {
	scans, err := l.turtleScans(3)
	if err != nil {
		return Report{}, err
	}
	rows := core.RankASes(scans, l.DB(), core.Turtles, 10)
	body := core.FormatASRanks(rows)
	cellShare := core.CellularShare(rows)
	ratio := 0.0
	if len(rows) >= 2 && rows[1].Total > 0 {
		ratio = float64(rows[0].Total) / float64(rows[1].Total)
	}
	top := "-"
	topPct := 0.0
	if len(rows) > 0 {
		top = rows[0].AS.Owner
		var c, p uint64
		for _, s := range rows[0].PerScan {
			c += s.Count
			p += s.Probed
		}
		if p > 0 {
			topPct = float64(c) / float64(p)
		}
	}
	return Report{
		ID:    "tab4",
		Title: "ASes most prone to RTTs greater than 1 second (turtles)",
		Body:  body,
		Metrics: []Metric{
			{"top turtle AS", "TELEFONICA BRASIL (26599)", top},
			{"top AS vs next (count ratio)", ">2x", fmt.Sprintf("%.1fx", ratio)},
			{"cellular/mixed share of top-10", "8-9 of 10", fmtPct(cellShare)},
			{"turtle share within top cellular AS", "~70-80%", fmtPct(topPct)},
		},
	}, nil
}

// Tab5 — continents: South America and Africa have the highest turtle
// shares; North America ~1%.
func (l *Lab) Tab5() (Report, error) {
	scans, err := l.turtleScans(3)
	if err != nil {
		return Report{}, err
	}
	rows := core.RankContinents(scans, l.DB(), core.Turtles)
	body := core.FormatContinentRanks(rows)
	pct := func(c ipmeta.Continent) float64 {
		for _, r := range rows {
			if r.Continent == c {
				var n, p uint64
				for _, s := range r.PerScan {
					n += s.Count
					p += s.Probed
				}
				if p > 0 {
					return float64(n) / float64(p)
				}
			}
		}
		return 0
	}
	// Share of all turtles held by SA+Asia.
	var all, saAsia uint64
	for _, r := range rows {
		for _, s := range r.PerScan {
			all += s.Count
			if r.Continent == ipmeta.SouthAmerica || r.Continent == ipmeta.Asia {
				saAsia += s.Count
			}
		}
	}
	share := 0.0
	if all > 0 {
		share = float64(saAsia) / float64(all)
	}
	return Report{
		ID:    "tab5",
		Title: "Continents with the most turtles",
		Body:  body,
		Metrics: []Metric{
			{"South America turtle share", "~26%", fmtPct(pct(ipmeta.SouthAmerica))},
			{"Africa turtle share", "~30%", fmtPct(pct(ipmeta.Africa))},
			{"North America turtle share", "~1%", fmtPct(pct(ipmeta.NorthAmerica))},
			{"SA+Asia share of all turtles", "~75%", fmtPct(share)},
		},
	}, nil
}

// Tab6 — ASes with the most addresses above 100 s: all cellular, stable
// ranks, but less stable percentages than the >1 s population.
func (l *Lab) Tab6() (Report, error) {
	scans, err := l.turtleScans(3)
	if err != nil {
		return Report{}, err
	}
	rows := core.RankASes(scans, l.DB(), core.SleepyTurtles, 10)
	body := core.FormatASRanks(rows)
	cellShare := core.CellularShare(rows)
	top := "-"
	if len(rows) > 0 {
		top = rows[0].AS.Owner
	}
	return Report{
		ID:    "tab6",
		Title: "ASes most prone to RTTs greater than 100 seconds (sleepy-turtles)",
		Body:  body,
		Metrics: []Metric{
			{"top sleepy-turtle AS", "TELEFONICA BRASIL (26599)", top},
			{"cellular/mixed share of top-10", "10 of 10", fmtPct(cellShare)},
		},
	}, nil
}
