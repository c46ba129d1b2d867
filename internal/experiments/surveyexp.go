package experiments

import (
	"fmt"
	"strings"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
)

// Fig1 — CDF of per-address percentile latency over survey-detected
// responses only: the distribution is clipped near the 3 s prober timeout,
// with a small tail of late matches from sweep granularity.
func (l *Lab) Fig1() (Report, error) {
	m, err := l.Match()
	if err != nil {
		return Report{}, err
	}
	q := m.SurveyDetectedQuantiles()
	var b strings.Builder
	cdfs := core.PercentileCDF(q, 0)
	fmt.Fprintf(&b, "per-address percentile latency over survey-detected responses (%d addresses)\n", len(q))
	writeCurveSummary(&b, cdfs)

	p95 := collectLevel(q, 95)
	p9595 := stats.Percentile(p95, 95)
	over3 := stats.FracAbove(collectLevel(q, 99), 3*time.Second)
	return Report{
		ID:    "fig1",
		Title: "Survey-detected response latency is clipped at the prober timeout",
		Body:  b.String(),
		Metrics: []Metric{
			{"95th pctile of per-address 95th pctile (clipped)", "2.85s (<3s)", fmtDur(p9595)},
			{"addresses whose 99th pctile exceeds the 3s timeout", "small tail (matches to ~7s)", fmtPct(over3)},
		},
	}, nil
}

// Fig3 — histogram of unmatched responses by the last octet most recently
// probed in the responder's /24: spikes at broadcast-like octets over a flat
// genuine-delay residue.
func (l *Lab) Fig3() (Report, error) {
	recs, _, err := l.Survey()
	if err != nil {
		return Report{}, err
	}
	hist := core.UnmatchedLastOctets(recs)
	var bcast, plain uint64
	var nb int
	for o := 0; o < 256; o++ {
		if ipaddr.BroadcastLikeOctet(byte(o)) {
			bcast += hist[o]
		} else {
			plain += hist[o]
			nb++
		}
	}
	spike := hist[255] + hist[0] + hist[127] + hist[128]
	var b strings.Builder
	fmt.Fprintf(&b, "unmatched responses by last octet of preceding probe in /24\n")
	fmt.Fprintf(&b, "  octet 255: %d   octet 0: %d   octet 127: %d   octet 128: %d\n",
		hist[255], hist[0], hist[127], hist[128])
	fmt.Fprintf(&b, "  broadcast-like octets total: %d, other octets total: %d (mean/octet %.1f)\n",
		bcast, plain, float64(plain)/float64(nb))
	ratio := 0.0
	if plain > 0 {
		ratio = (float64(spike) / 4) / (float64(plain) / float64(nb))
	}
	return Report{
		ID:    "fig3",
		Title: "Unmatched responses cluster after probes to broadcast-like octets",
		Body:  b.String(),
		Metrics: []Metric{
			{"spike-to-flat ratio (255/0/127/128 vs other octets)", "large spikes over flat floor", fmt.Sprintf("%.0fx", ratio)},
			{"unmatched responses spread across ALL octets (genuine delay)", "~10M of ~44M", fmt.Sprintf("%d of %d", plain, plain+bcast)},
		},
	}, nil
}

// Fig5 — CCDF of the maximum responses per single echo request, over
// addresses that ever sent more than two.
func (l *Lab) Fig5() (Report, error) {
	m, err := l.Match()
	if err != nil {
		return Report{}, err
	}
	ccdf := m.DuplicateCCDF()
	var total, over1000 int
	var max float64
	m.Range(func(_ ipaddr.Addr, ar *core.AddressResult) {
		if ar.MaxResponses > 2 {
			total++
			if ar.MaxResponses >= 1000 {
				over1000++
			}
			if f := float64(ar.MaxResponses); f > max {
				max = f
			}
		}
	})
	var b strings.Builder
	fmt.Fprintf(&b, "addresses with >2 responses to a single request: %d\n", total)
	fmt.Fprintf(&b, "CCDF points (value, frac above): ")
	for i, p := range ccdf {
		if i%8 == 0 {
			fmt.Fprintf(&b, "\n  ")
		}
		fmt.Fprintf(&b, "(%.0f, %.2g) ", p.Value, p.Frac)
	}
	b.WriteByte('\n')
	frac1000 := 0.0
	if total > 0 {
		frac1000 = float64(over1000) / float64(total)
	}
	return Report{
		ID:    "fig5",
		Title: "Duplicate responders: a heavy tail reaching DoS-scale response counts",
		Body:  b.String(),
		Metrics: []Metric{
			{"duplicating addresses with >=1000 responses/request", "0.7%", fmtPct(frac1000)},
			{"largest observed responses to one request", "~11M in 11 minutes", fmt.Sprintf("%.0f", max)},
		},
	}, nil
}

// Tab1 — packet/address accounting through matching and filtering.
func (l *Lab) Tab1() (Report, error) {
	m, err := l.Match()
	if err != nil {
		return Report{}, err
	}
	t := m.BuildTable1()
	naiveGain := 0.0
	if t.SurveyPackets > 0 {
		naiveGain = float64(t.NaivePackets)/float64(t.SurveyPackets) - 1
	}
	discarded := t.BroadcastAddrs + t.DuplicateAddrs
	bshare := 0.0
	if discarded > 0 {
		bshare = float64(t.BroadcastAddrs) / float64(discarded)
	}
	return Report{
		ID:    "tab1",
		Title: "Adding unmatched responses to survey-detected responses",
		Body:  t.Format(),
		Metrics: []Metric{
			{"packet gain from naive matching", "+1.3%", fmtPct(naiveGain)},
			{"share of discarded addresses that are broadcast responders", "32.4%", fmtPct(bshare)},
			{"share discarded for >4 duplicate responses", "67.6%", fmtPct(1 - bshare)},
		},
	}, nil
}

// Tab2 — the headline minimum-timeout matrix over survey + delayed samples.
func (l *Lab) Tab2() (Report, error) {
	q, err := l.Quantiles()
	if err != nil {
		return Report{}, err
	}
	matrix := core.TimeoutMatrix(q)
	frac5s := core.FracAddrsAbove(q, 95, 5*time.Second)
	return Report{
		ID:    "tab2",
		Title: "Minimum timeout capturing c% of pings from r% of addresses",
		Body:  matrix.FormatSeconds(),
		Metrics: []Metric{
			{"50%/50% timeout", "0.19s", fmtDur(matrix.At(50, 50))},
			{"90%/90% timeout", "0.57s", fmtDur(matrix.At(90, 90))},
			{"95%/95% timeout", "5s", fmtDur(matrix.At(95, 95))},
			{"98%/98% timeout", "41s", fmtDur(matrix.At(98, 98))},
			{"99%/99% timeout", "145s", fmtDur(matrix.At(99, 99))},
			{"1st pctile latency < 0.33s for 99% of addresses", "yes", fmtDur(matrix.At(99, 1))},
			{"addresses with >5% of pings over 5s", ">=5%", fmtPct(frac5s)},
		},
	}, nil
}

// Fig6 — the effect of filtering: naive matching shows bumps at fractions
// of the probing interval (330/165/495 s); filtering removes them.
func (l *Lab) Fig6() (Report, error) {
	m, err := l.Match()
	if err != nil {
		return Report{}, err
	}
	naive := m.AddressQuantiles(false)
	filtered := m.AddressQuantiles(true)
	bump := func(q []core.AddrQuantiles) int {
		// Addresses whose 99th percentile sits near a multiple of the
		// half-interval (330 s): the broadcast false-match signature.
		n := 0
		for _, v := range q {
			for _, c := range []time.Duration{165 * time.Second, 330 * time.Second, 495 * time.Second, 660 * time.Second} {
				d := v.P99 - c
				if d < 0 {
					d = -d
				}
				if d <= 6*time.Second {
					n++
					break
				}
			}
		}
		return n
	}
	nb, fb := bump(naive), bump(filtered)
	var b strings.Builder
	fmt.Fprintf(&b, "addresses with 99th pctile near 165/330/495/660s:\n")
	fmt.Fprintf(&b, "  before filtering: %d of %d\n", nb, len(naive))
	fmt.Fprintf(&b, "  after  filtering: %d of %d\n", fb, len(filtered))
	return Report{
		ID:    "fig6",
		Title: "Filtering removes the interval-fraction bumps from the latency CDF",
		Body:  b.String(),
		Metrics: []Metric{
			{"interval-fraction bumps before filtering", "visible at 330/165/495s", fmt.Sprintf("%d addresses", nb)},
			{"interval-fraction bumps after filtering", "removed", fmt.Sprintf("%d addresses", fb)},
		},
	}, nil
}

// Fig11 — satellite isolation: satellite providers have high 1st
// percentiles but mostly modest 99th percentiles; the extreme tail comes
// from elsewhere.
func (l *Lab) Fig11() (Report, error) {
	q, err := l.Quantiles()
	if err != nil {
		return Report{}, err
	}
	db := l.DB()
	pts := core.SatelliteScatter(q, db, 300*time.Millisecond)
	sum := core.SummarizeSatellites(pts)
	var b strings.Builder
	fmt.Fprintf(&b, "addresses with 1st pctile >= 0.3s: %d (satellite %d, other %d)\n",
		len(pts), sum.SatAddrs, sum.NonSatAddrs)
	fmt.Fprintf(&b, "satellite: P1>0.5s %.1f%%, P99<3s %.1f%%\n", 100*sum.SatP1AboveHalf, 100*sum.SatP99Below3s)
	fmt.Fprintf(&b, "non-satellite high-base addresses with P99>3s: %.1f%%\n", 100*sum.NonSatP99Above3s)
	return Report{
		ID:    "fig11",
		Title: "Satellite links are not the source of extreme latency tails",
		Body:  b.String(),
		Metrics: []Metric{
			{"satellite addresses with 1st pctile > 0.5s", "all (>=500ms transit)", fmtPct(sum.SatP1AboveHalf)},
			{"satellite addresses with 99th pctile < 3s", "predominant", fmtPct(sum.SatP99Below3s)},
			{"non-satellite high-base addresses with 99th pctile > 3s", "substantial", fmtPct(sum.NonSatP99Above3s)},
		},
	}, nil
}

// writeCurveSummary prints each percentile curve at a few CDF fractions.
func writeCurveSummary(b *strings.Builder, cdfs map[float64][]stats.CDFPoint) {
	fracs := []float64{0.25, 0.5, 0.8, 0.9, 0.95, 0.99}
	fmt.Fprintf(b, "%8s", "curve")
	for _, f := range fracs {
		fmt.Fprintf(b, " %9s", fmt.Sprintf("@%.0f%%", f*100))
	}
	b.WriteByte('\n')
	for _, p := range stats.StandardPercentiles {
		pts := cdfs[p]
		fmt.Fprintf(b, "%7.0fth", p)
		for _, f := range fracs {
			fmt.Fprintf(b, " %9s", fmtDur(valueAtFrac(pts, f)))
		}
		b.WriteByte('\n')
	}
}

// valueAtFrac reads a CDF curve at a fraction.
func valueAtFrac(pts []stats.CDFPoint, f float64) time.Duration {
	for _, p := range pts {
		if p.Frac >= f {
			return p.Value
		}
	}
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].Value
}

// collectLevel gathers one percentile level across addresses, sorted.
func collectLevel(q []core.AddrQuantiles, p float64) []time.Duration {
	out := make([]time.Duration, 0, len(q))
	for _, v := range q {
		out = append(out, v.At(p))
	}
	return stats.SortDurations(out)
}
