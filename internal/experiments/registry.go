package experiments

import (
	"fmt"
	"strings"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/outage"
	"timeouts/internal/stats"
)

// Entry names one runnable experiment. Run returns an error — rather than
// panicking — when the underlying workload (survey, scan, probing) fails, so
// cmd/reproduce can exit with a message instead of a stack trace.
type Entry struct {
	ID    string
	Title string
	Run   func(*Lab) (Report, error)
}

// Registry lists every reproduced table and figure, in paper order, plus
// the design-choice ablations called out in DESIGN.md.
var Registry = []Entry{
	{"fig1", "Figure 1: survey-detected latency CDF (clipped at timeout)", (*Lab).Fig1},
	{"fig2", "Figure 2: broadcast address last-octet histogram (Zmap)", (*Lab).Fig2},
	{"fig3", "Figure 3: unmatched responses by preceding probe's last octet", (*Lab).Fig3},
	{"fig4", "Figure 4: broadcast responder false-match scenario", (*Lab).Fig4},
	{"fig5", "Figure 5: duplicate responses CCDF", (*Lab).Fig5},
	{"tab1", "Table 1: matching and filtering accounting", (*Lab).Tab1},
	{"fig6", "Figure 6: percentile CDFs before/after filtering", (*Lab).Fig6},
	{"tab2", "Table 2: minimum timeout matrix", (*Lab).Tab2},
	{"tab3", "Table 3: Zmap scan inventory", (*Lab).Tab3},
	{"fig7", "Figure 7: per-scan RTT distributions", (*Lab).Fig7},
	{"fig8", "Figure 8: scamper confirmation of high latencies", (*Lab).Fig8},
	{"fig9", "Figure 9: survey time series 2006-2015", (*Lab).Fig9},
	{"fig10", "Figure 10: protocol comparison (ICMP/UDP/TCP)", (*Lab).Fig10},
	{"fig11", "Figure 11: satellite 1st vs 99th percentile scatter", (*Lab).Fig11},
	{"tab4", "Table 4: turtle ASes (>1s)", (*Lab).Tab4},
	{"tab5", "Table 5: turtle continents", (*Lab).Tab5},
	{"tab6", "Table 6: sleepy-turtle ASes (>100s)", (*Lab).Tab6},
	{"fig12", "Figure 12: first-ping RTT1-RTT2 analysis", (*Lab).Fig12},
	{"fig13", "Figure 13: wake-up duration", (*Lab).Fig13},
	{"fig14", "Figure 14: per-/24 first-ping clustering", (*Lab).Fig14},
	{"tab7", "Table 7: >100s latency patterns", (*Lab).Tab7},
	{"rec60", "Section 7: the 60-second recommendation and retry correlation", (*Lab).Rec60},
	{"outage", "Motivation: false outages vs probe timeout (Trinocular/Thunderping-style)", (*Lab).Outage},
	{"abl-filter", "Ablation: broadcast-filter parameters (alpha, mark threshold)", (*Lab).AblFilter},
	{"abl-dup", "Ablation: duplicate-filter threshold", (*Lab).AblDup},
	{"abl-timeout", "Ablation: prober timeout clipping", (*Lab).AblTimeout},
	{"abl-scale", "Ablation: sample-count sensitivity of Table 2", (*Lab).AblScale},
	{"abl-vantage", "Ablation: vantage-point consistency (§5.2)", (*Lab).AblVantage},
}

// Find returns the registry entry with the given id.
func Find(id string) (Entry, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// fig4Half is half of the 11-minute probing interval: the latency a
// broadcast responder's replies are falsely matched at.
const fig4Half = 330 * time.Second

// fig4FalseMatch reports whether an address looks like Figure 4's false
// match: it never answers its own probes, yet at least 70% of its three or
// more delayed responses sit within 5 s of a multiple of fig4Half.
func fig4FalseMatch(ar *core.AddressResult) bool {
	if len(ar.Delayed) < 3 || len(ar.Matched) > 0 {
		return false
	}
	hit := 0
	for _, d := range ar.Delayed {
		q := d % fig4Half
		if q > fig4Half/2 {
			q = fig4Half - q
		}
		if q <= 5*time.Second {
			hit++
		}
	}
	return float64(hit) >= 0.7*float64(len(ar.Delayed))
}

// Fig4 — the false-match scenario: a broadcast responder that never answers
// its own probes repeatedly "responds" with a latency of half the probing
// interval, because its broadcast replies are matched to its timed-out
// direct probes. The example shown is the lowest such address.
func (l *Lab) Fig4() (Report, error) {
	m, err := l.Match()
	if err != nil {
		return Report{}, err
	}
	var demo ipaddr.Addr
	var demoAR *core.AddressResult
	nearHalf, marked := 0, 0
	m.Range(func(a ipaddr.Addr, ar *core.AddressResult) {
		if !fig4FalseMatch(ar) {
			return
		}
		nearHalf++
		if ar.Broadcast {
			marked++
		}
		if demoAR == nil {
			demo, demoAR = a, ar
		}
	})
	var b strings.Builder
	fmt.Fprintf(&b, "addresses whose delayed responses repeat at multiples of %s: %d\n", fig4Half, nearHalf)
	fmt.Fprintf(&b, "of those, flagged by the broadcast filter: %d\n", marked)
	if demoAR != nil {
		fmt.Fprintf(&b, "example %s: %d delayed responses, first few:", demo, len(demoAR.Delayed))
		for i, d := range demoAR.Delayed {
			if i == 5 {
				break
			}
			fmt.Fprintf(&b, " %s", d.Round(time.Second))
		}
		b.WriteByte('\n')
	}
	caught := 0.0
	if nearHalf > 0 {
		caught = float64(marked) / float64(nearHalf)
	}
	return Report{
		ID:    "fig4",
		Title: "Broadcast responses yield false half-interval latencies until filtered",
		Body:  b.String(),
		Metrics: []Metric{
			{"false latencies cluster at interval fractions (330s)", "yes (Figure 6a bumps)", fmt.Sprintf("%d addresses", nearHalf)},
			{"share of them caught by the EWMA filter", "97.7%", fmtPct(caught)},
		},
	}, nil
}

// Outage — the paper's motivation quantified: false loss and false outage
// rates of timeout-based detectors against a population with no real
// outages, as a function of the probe timeout.
func (l *Lab) Outage() (Report, error) {
	// Monitor a mixed sample: mostly ordinary hosts plus the slow tail.
	q, err := l.Quantiles()
	if err != nil {
		return Report{}, err
	}
	targets := sampleEvery(addrsOf(q), l.Scale.SampleAddrs)
	var slow []ipaddr.Addr
	for _, v := range q {
		if v.P95 > 2*time.Second {
			slow = append(slow, v.Addr)
		}
	}
	slow = sampleEvery(slow, l.Scale.SampleAddrs/3)

	var b strings.Builder
	fmt.Fprintf(&b, "%9s %18s %18s %18s\n", "timeout", "false loss (all)", "false loss (slow)", "down rounds (slow)")
	type row struct {
		timeout             time.Duration
		lossAll, lossSlow   float64
		downSlow, downRatio float64
	}
	var rows []row
	for _, timeout := range []time.Duration{time.Second, 3 * time.Second, 5 * time.Second, 20 * time.Second, 60 * time.Second} {
		w := NewWorld(l.popCfg)
		cfg := outage.HostMonitorConfig{
			Src: outageSrc, Timeout: timeout, Retries: 3, Rounds: 6,
		}
		repAll := outage.MonitorHosts(w.Net, cfg, targets)
		w2 := NewWorld(l.popCfg)
		repSlow := outage.MonitorHosts(w2.Net, cfg, slow)
		agg := func(rep []outage.HostReport) (loss, down float64) {
			var p, lo, d, r int
			for _, hr := range rep {
				p += hr.Probes
				lo += hr.Losses
				d += hr.DownRounds
				r += hr.Rounds
			}
			if p > 0 {
				loss = float64(lo) / float64(p)
			}
			if r > 0 {
				down = float64(d) / float64(r)
			}
			return
		}
		la, _ := agg(repAll)
		ls, ds := agg(repSlow)
		rows = append(rows, row{timeout, la, ls, ds, 0})
		fmt.Fprintf(&b, "%9s %17.2f%% %17.2f%% %17.2f%%\n", timeout, 100*la, 100*ls, 100*ds)
	}
	improvement := "n/a"
	if len(rows) >= 2 && rows[len(rows)-1].lossSlow > 0 {
		improvement = fmt.Sprintf("%.1fx", rows[1].lossSlow/rows[len(rows)-1].lossSlow)
	}

	// Strategy comparison on the slow hosts: the conventional fixed 3s
	// detector vs the paper's §7 recommendation (retransmit at 3s, listen
	// 60s) vs a Trinocular-style belief detector at 3s.
	w3 := NewWorld(l.popCfg)
	tcp := outage.MonitorTCPStyle(w3.Net, outage.StrategyConfig{
		Src: outageSrc, Rounds: 6,
	}, slow)
	var tcpDown, tcpRounds, tcpLate int
	for _, r := range tcp {
		tcpDown += r.DownRounds
		tcpRounds += r.Rounds
		tcpLate += r.AnsweredLate
	}
	w4 := NewWorld(l.popCfg)
	blocks := map[ipaddr.Prefix24][]ipaddr.Addr{}
	for _, a := range slow {
		blocks[a.Prefix()] = append(blocks[a.Prefix()], a)
	}
	var tri []outage.TrinocularBlock
	for pfx, as := range blocks {
		tri = append(tri, outage.TrinocularBlock{Prefix: pfx, Addrs: as, Availability: 0.9})
	}
	triReps := outage.MonitorTrinocular(w4.Net, outage.TrinocularConfig{
		Src: outageSrc, Rounds: 6,
	}, tri)
	var triDown, triRounds int
	for _, r := range triReps {
		triDown += r.DownDecisions
		triRounds += r.Rounds
	}
	fmt.Fprintf(&b, "\nstrategies over the slow hosts (no real outages):\n")
	fmt.Fprintf(&b, "  Trinocular-style belief @3s: %d false down-decisions in %d block-rounds (%.1f%%)\n",
		triDown, triRounds, 100*float64(triDown)/float64(triRounds))
	fmt.Fprintf(&b, "  retransmit@3s, listen 60s:   %d false outages in %d rounds (%.2f%%), %d rounds rescued by listening\n",
		tcpDown, tcpRounds, 100*float64(tcpDown)/float64(tcpRounds), tcpLate)

	return Report{
		ID:    "outage",
		Title: "Short timeouts manufacture loss and outages on healthy slow hosts",
		Body:  b.String(),
		Metrics: []Metric{
			{"false loss on slow hosts, 3s vs 60s timeout", "5%+ at 5s timeout for 5% of addrs", improvement},
			{"listen-long rescues rounds a fixed timeout loses", "the paper's §7 recommendation", fmt.Sprintf("%d rounds rescued", tcpLate)},
		},
	}, nil
}

// AblFilter — sweep the broadcast filter's EWMA alpha and mark threshold,
// measuring detection and collateral damage against the Zmap-identified
// broadcast responder ground truth (the paper's own validation, §3.3.1).
func (l *Lab) AblFilter() (Report, error) {
	recs, _, err := l.Survey()
	if err != nil {
		return Report{}, err
	}
	scans, err := l.Scans(1)
	if err != nil {
		return Report{}, err
	}
	truth := scans[0].Broadcast.Responders

	var b strings.Builder
	fmt.Fprintf(&b, "%8s %8s %12s %12s %12s\n", "alpha", "mark", "flagged", "recall", "collateral")
	base := core.MatchOptionsForCycles(l.Scale.SurveyCycles)
	var baseRecall float64
	for _, alpha := range []float64{0.005, 0.01, 0.05} {
		for _, markScale := range []float64{0.5, 1.0, 2.0} {
			opt := base
			opt.BroadcastAlpha = alpha
			opt.BroadcastMark = base.BroadcastMark * markScale
			res := core.Match(recs, opt)
			flagged := res.BroadcastResponders()
			inTruth := 0
			for _, a := range flagged {
				if truth[a] > 0 {
					inTruth++
				}
			}
			// The paper's accounting (§3.3.1): of the Zmap broadcast
			// responders seen in the survey, exclude those whose survey
			// latencies are normal (99th percentile under 2.5 s) — they
			// answer their own probes directly, so their broadcast copies
			// are mere duplicates and there is nothing to filter. Recall is
			// computed over the remainder.
			truthSeen := 0
			for a := range truth {
				ar := res.Lookup(a)
				if ar == nil || len(ar.Matched)+len(ar.Delayed) == 0 {
					continue
				}
				samples := append(append([]time.Duration(nil), ar.Matched...), ar.Delayed...)
				q := stats.ComputeQuantiles(samples)
				if q.P99 < 2500*time.Millisecond {
					continue
				}
				truthSeen++
			}
			recall := 0.0
			if truthSeen > 0 {
				recall = float64(inTruth) / float64(truthSeen)
				if recall > 1 {
					recall = 1
				}
			}
			collateral := len(flagged) - inTruth
			if alpha == 0.01 && markScale == 1.0 {
				baseRecall = recall
			}
			fmt.Fprintf(&b, "%8.3f %8.3f %12d %11.1f%% %12d\n",
				alpha, opt.BroadcastMark, len(flagged), 100*recall, collateral)
		}
	}
	return Report{
		ID:    "abl-filter",
		Title: "Broadcast filter sensitivity to alpha and mark threshold",
		Body:  b.String(),
		Metrics: []Metric{
			{"detection at the paper's settings", "97.7%", fmtPct(baseRecall)},
		},
	}, nil
}

// AblDup — sweep the duplicate-filter threshold: the paper chose 4 so that
// a duplicated direct response plus a duplicated broadcast response is not
// discarded. The threshold enters only an address's verdict (Duplicate is
// MaxResponses > DuplicateMax), so the lab's one match serves every
// threshold: at k, Table 1 drops each address not marked broadcast whose
// MaxResponses exceeds k, with all its response packets.
func (l *Lab) AblDup() (Report, error) {
	res, err := l.Match()
	if err != nil {
		return Report{}, err
	}
	thresholds := []int{2, 3, 4, 8, 16}
	addrs := make([]uint64, len(thresholds))
	packets := make([]uint64, len(thresholds))
	res.Range(func(_ ipaddr.Addr, ar *core.AddressResult) {
		if ar.Broadcast {
			return
		}
		for i, k := range thresholds {
			if ar.MaxResponses > k {
				addrs[i]++
				packets[i] += ar.ResponsePackets()
			}
		}
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %14s %16s\n", "threshold", "addrs dropped", "packets dropped")
	var at4 uint64
	for i, k := range thresholds {
		if k == 4 {
			at4 = addrs[i]
		}
		fmt.Fprintf(&b, "%10d %14d %16d\n", k, addrs[i], packets[i])
	}
	return Report{
		ID:    "abl-dup",
		Title: "Duplicate filter threshold sweep",
		Body:  b.String(),
		Metrics: []Metric{
			{"addresses discarded at threshold 4", "20,736 (at Internet scale)", fmt.Sprintf("%d", at4)},
		},
	}, nil
}
