package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/scamper"
	"timeouts/internal/simnet"
	"timeouts/internal/stats"
)

// addrsOf lists the addresses of q, in q's (ascending) order.
func addrsOf(q []core.AddrQuantiles) []ipaddr.Addr {
	out := make([]ipaddr.Addr, len(q))
	for i, v := range q {
		out[i] = v.Addr
	}
	return out
}

// sampleEvery thins a slice to at most n elements, evenly spaced.
func sampleEvery(addrs []ipaddr.Addr, n int) []ipaddr.Addr {
	if n <= 0 || len(addrs) <= n {
		return addrs
	}
	out := make([]ipaddr.Addr, 0, n)
	step := float64(len(addrs)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, addrs[int(float64(i)*step)])
	}
	return out
}

// toTrain converts scamper results to core train samples.
func toTrain(rs []scamper.ProbeResult) []core.TrainSample {
	out := make([]core.TrainSample, len(rs))
	for i, r := range rs {
		out[i] = core.TrainSample{
			Seq: r.Seq, SentAt: time.Duration(r.SentAt),
			Responded: r.Responded, RTT: r.RTT,
		}
	}
	return out
}

// Fig8 — re-probing addresses that showed >=5% of pings above 100 s in the
// survey: extreme latency is time-varying, but a meaningful share still
// shows >100 s tails under scamper.
func (l *Lab) Fig8() (Report, error) {
	m, err := l.Match()
	if err != nil {
		return Report{}, err
	}
	pick := func(minFrac float64) []ipaddr.Addr {
		var out []ipaddr.Addr
		m.Range(func(a ipaddr.Addr, ar *core.AddressResult) {
			n := len(ar.Matched) + len(ar.Delayed)
			if ar.Discarded() || n == 0 {
				return
			}
			over := 0
			for _, s := range [][]time.Duration{ar.Matched, ar.Delayed} {
				for _, d := range s {
					if d >= 100*time.Second {
						over++
					}
				}
			}
			if float64(over)/float64(n) >= minFrac {
				out = append(out, a)
			}
		})
		return out
	}
	// The paper's criterion: >=5% of pings at 100s or more. At deep
	// per-address sampling almost no genuine host sustains a 5% duty of
	// >100s episodes (the few that qualify are the broadcast filter's
	// documented false negatives, which never answer direct probes), so
	// relax to the >=1% tail when the strict cut is too thin.
	criterion := ">=5%"
	candidates := pick(0.05)
	if len(candidates) < 30 {
		candidates = pick(0.01)
		criterion = ">=1%"
	}
	targets := sampleEvery(candidates, l.Scale.SampleAddrs)
	pings := l.Scale.TrainPings
	if pings > 1000 {
		pings = 1000
	}

	w := NewWorld(l.popCfg)
	pr := scamper.New(w.Net, scamperSrc, ipmeta.NorthAmerica)
	defer pr.Close()
	for i, a := range targets {
		start := simnet.Time(i) * 37 * time.Millisecond
		pr.SchedulePing(a, scamper.ICMP, start, pings, 10*time.Second)
	}
	w.Sched.Run()

	responded := 0
	var p95s, p99s []time.Duration
	over100 := 0
	for _, a := range targets {
		var rtts []time.Duration
		for _, r := range pr.ResultsFor(a, scamper.ICMP) {
			if r.Responded {
				rtts = append(rtts, r.RTT)
			}
		}
		if len(rtts) == 0 {
			continue
		}
		responded++
		stats.SortDurations(rtts)
		p95 := stats.Percentile(rtts, 95)
		p99 := stats.Percentile(rtts, 99)
		p95s = append(p95s, p95)
		p99s = append(p99s, p99)
		if p99 > 100*time.Second {
			over100++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "survey addresses with %s of pings over 100s: %d; re-probed %d, responded %d\n",
		criterion, len(candidates), len(targets), responded)
	medP95 := time.Duration(0)
	if len(p95s) > 0 {
		stats.SortDurations(p95s)
		medP95 = stats.Percentile(p95s, 50)
	}
	frac := 0.0
	if responded > 0 {
		frac = float64(over100) / float64(responded)
	}
	fmt.Fprintf(&b, "median per-address 95th pctile: %s; addresses with 99th pctile >100s: %.1f%%\n",
		medP95.Round(100*time.Millisecond), 100*frac)
	return Report{
		ID:    "fig8",
		Title: "scamper confirms extreme latencies on previously slow addresses",
		Body:  b.String(),
		Metrics: []Metric{
			{"median 95th pctile on re-probe (lower than survey)", "7.3s", fmtDur(medP95)},
			{"addresses still with 1% of pings >100s", "17%", fmtPct(frac)},
		},
	}, nil
}

// Fig10 — the protocol-equality triplets: 3 ICMP, then 3 UDP 20 minutes
// later, then 3 TCP ACK 20 minutes after that, to high-latency addresses.
func (l *Lab) Fig10() (Report, error) {
	q, err := l.Quantiles()
	if err != nil {
		return Report{}, err
	}
	// "High-latency": union of the top 5% by median, 80th, 90th, 95th.
	var candidates []ipaddr.Addr
	for _, level := range []float64{50, 80, 90, 95} {
		vals := collectLevel(q, level)
		if len(vals) == 0 {
			continue
		}
		cut := stats.Percentile(vals, 95)
		for _, v := range q {
			if v.At(level) >= cut {
				candidates = append(candidates, v.Addr)
			}
		}
	}
	seen := make(map[ipaddr.Addr]bool)
	var uniq []ipaddr.Addr
	for _, a := range candidates {
		if !seen[a] {
			seen[a] = true
			uniq = append(uniq, a)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	targets := sampleEvery(uniq, l.Scale.SampleAddrs)

	w := NewWorld(l.popCfg)
	pr := scamper.New(w.Net, scamperSrc, ipmeta.NorthAmerica)
	defer pr.Close()
	const gap = 20 * time.Minute
	for i, a := range targets {
		t0 := simnet.Time(i) * 53 * time.Millisecond
		pr.SchedulePing(a, scamper.ICMP, t0, 3, time.Second)
		pr.SchedulePing(a, scamper.UDP, t0+gap, 3, time.Second)
		pr.SchedulePing(a, scamper.TCP, t0+2*gap, 3, time.Second)
	}
	w.Sched.Run()

	// Firewall identification, the paper's way (§5.3): fast TCP RSTs are
	// suspicious; for each suspicious /24, probe additional addresses of
	// the block and check whether every reply carries one identical TTL.
	suspicious := make(map[ipaddr.Prefix24]bool)
	for _, a := range targets {
		for _, r := range pr.ResultsFor(a, scamper.TCP) {
			if r.Responded && r.RTT < 600*time.Millisecond {
				suspicious[a.Prefix()] = true
			}
		}
	}
	verifyStart := w.Sched.Now() + simnet.Time(time.Minute)
	for pfx := range suspicious {
		for k := 0; k < 8; k++ {
			pr.SchedulePing(pfx.Addr(byte(29+k*27)), scamper.TCP, verifyStart, 1, time.Second)
		}
	}
	w.Sched.Run()

	var tcpReplies []core.TCPReply
	for _, r := range pr.Results() {
		if r.Proto == scamper.TCP && r.Responded {
			tcpReplies = append(tcpReplies, core.TCPReply{Addr: r.Dst, RTT: r.RTT, TTL: r.ReplyTTL})
		}
	}
	verdicts := core.DetectFirewalls(tcpReplies, 3, time.Second)

	type dist struct{ seq0, rest []time.Duration }
	dists := map[scamper.Proto]*dist{
		scamper.ICMP: {}, scamper.UDP: {}, scamper.TCP: {},
	}
	var fwRTTs []time.Duration
	fwBlocks := 0
	for _, v := range verdicts {
		if v.Firewall {
			fwBlocks++
		}
	}
	respondedAll := 0
	for _, a := range targets {
		all := true
		for proto, d := range dists {
			for _, r := range pr.ResultsFor(a, proto) {
				if !r.Responded {
					all = false
					continue
				}
				if proto == scamper.TCP && verdicts[a.Prefix()].Firewall {
					// Firewall-forged RST: excluded from the host latency
					// comparison, as in the paper.
					fwRTTs = append(fwRTTs, r.RTT)
					continue
				}
				if r.Seq == 0 {
					d.seq0 = append(d.seq0, r.RTT)
				} else {
					d.rest = append(d.rest, r.RTT)
				}
			}
		}
		if all {
			respondedAll++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "high-latency targets probed: %d (answered all probes: %d)\n", len(targets), respondedAll)
	fmt.Fprintf(&b, "%6s %14s %14s %14s %14s\n", "proto", "seq0 median", "seq1,2 median", "seq0 p90", "seq1,2 p90")
	med := func(v []time.Duration) time.Duration {
		if len(v) == 0 {
			return 0
		}
		stats.SortDurations(v)
		return stats.Percentile(v, 50)
	}
	p90 := func(v []time.Duration) time.Duration {
		if len(v) == 0 {
			return 0
		}
		stats.SortDurations(v)
		return stats.Percentile(v, 90)
	}
	for _, proto := range []scamper.Proto{scamper.ICMP, scamper.UDP, scamper.TCP} {
		d := dists[proto]
		fmt.Fprintf(&b, "%6s %14s %14s %14s %14s\n", proto,
			med(d.seq0).Round(time.Millisecond), med(d.rest).Round(time.Millisecond),
			p90(d.seq0).Round(time.Millisecond), p90(d.rest).Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "firewall /24s (identical TTL across block, fast): %d; their RSTs: %d, median RTT %s\n",
		fwBlocks, len(fwRTTs), med(fwRTTs).Round(time.Millisecond))

	icmp0, udp0, tcp0 := med(dists[scamper.ICMP].seq0), med(dists[scamper.UDP].seq0), med(dists[scamper.TCP].seq0)
	maxRel := 0.0
	if icmp0 > 0 {
		for _, v := range []time.Duration{udp0, tcp0} {
			r := float64(v-icmp0) / float64(icmp0)
			if r < 0 {
				r = -r
			}
			if r > maxRel {
				maxRel = r
			}
		}
	}
	return Report{
		ID:    "fig10",
		Title: "ICMP, UDP and TCP see the same high latencies; seq-0 probes pay extra",
		Body:  b.String(),
		Metrics: []Metric{
			{"cross-protocol divergence of seq-0 medians", "none significant", fmtPct(maxRel)},
			{"first probe of triplet slower than rest", "yes, all protocols", fmt.Sprintf("icmp %s vs %s", med(dists[scamper.ICMP].seq0).Round(time.Millisecond), med(dists[scamper.ICMP].rest).Round(time.Millisecond))},
			{"firewall RST mode", "~200ms, same TTL per /24", med(fwRTTs).Round(time.Millisecond).String()},
		},
	}, nil
}

// firstPingTrains runs the §6.3 protocol: screen with 2 pings 5 s apart,
// wait ~80 s, then a 10-ping train at 1 s spacing.
func (l *Lab) firstPingTrains() (map[ipaddr.Addr][]core.TrainSample, int, error) {
	q, err := l.Quantiles()
	if err != nil {
		return nil, 0, err
	}
	var candidates []ipaddr.Addr
	for _, v := range q {
		if v.P50 >= time.Second {
			candidates = append(candidates, v.Addr)
		}
	}
	targets := sampleEvery(candidates, l.Scale.SampleAddrs*2)

	w := NewWorld(l.popCfg)
	pr := scamper.New(w.Net, scamperSrc, ipmeta.NorthAmerica)
	defer pr.Close()
	for i, a := range targets {
		t0 := simnet.Time(i) * 97 * time.Millisecond
		pr.SchedulePing(a, scamper.ICMP, t0, 2, 5*time.Second)
		pr.SchedulePing(a, scamper.ICMP, t0+90*time.Second, 10, time.Second)
	}
	w.Sched.Run()

	trains := make(map[ipaddr.Addr][]core.TrainSample)
	screened := 0
	for _, a := range targets {
		rs := pr.ResultsFor(a, scamper.ICMP)
		if len(rs) < 12 {
			continue
		}
		screen, train := rs[:2], rs[2:]
		// Screening (§6.3): drop addresses that answered neither screen
		// probe, and those that answered on average within 200 ms.
		var n int
		var sum time.Duration
		for _, r := range screen {
			if r.Responded {
				n++
				sum += r.RTT
			}
		}
		if n == 0 || sum/time.Duration(n) < 200*time.Millisecond {
			screened++
			continue
		}
		trains[a] = toTrain(train)
	}
	return trains, screened, nil
}

// Fig12 — RTT1-RTT2: for wake-up addresses both responses arrive together,
// so the difference is the probe spacing.
func (l *Lab) Fig12() (Report, error) {
	trains, _, err := l.firstPingTrains()
	if err != nil {
		return Report{}, err
	}
	fa := core.AnalyzeFirstPing(trains)
	var b strings.Builder
	fmt.Fprintf(&b, "addresses with trains: %d; classes: ", len(trains))
	for c := core.FirstAboveMax; c <= core.TooFewResponses; c++ {
		fmt.Fprintf(&b, "%s=%d ", c, fa.Counts[c])
	}
	b.WriteByte('\n')
	if len(fa.Delta12) > 0 {
		ds := append([]time.Duration(nil), fa.Delta12...)
		stats.SortDurations(ds)
		fmt.Fprintf(&b, "RTT1-RTT2: median %s, p90 %s\n",
			stats.Percentile(ds, 50).Round(10*time.Millisecond),
			stats.Percentile(ds, 90).Round(10*time.Millisecond))
	}
	for _, pt := range fa.DropProbability(200*time.Millisecond, 0, 1400*time.Millisecond) {
		fmt.Fprintf(&b, "  P(first>max | drop=%v): %.2f (n=%d)\n", pt.Delta, pt.P, pt.N)
	}
	med12 := time.Duration(0)
	if len(fa.Delta12AboveMax) > 0 {
		ds := append([]time.Duration(nil), fa.Delta12AboveMax...)
		stats.SortDurations(ds)
		med12 = stats.Percentile(ds, 50)
	}
	return Report{
		ID:    "fig12",
		Title: "The first ping's overestimate is detectable from RTT1-RTT2",
		Body:  b.String(),
		Metrics: []Metric{
			{"share of classified addrs with RTT1 > max(rest)", "~2/3 (51,646/74,430)", fmtPct(fa.FracAboveMax())},
			{"typical RTT1-RTT2 for wake-up addresses", "~1s (the probe spacing)", med12.Round(10 * time.Millisecond).String()},
		},
	}, nil
}

// Fig13 — wake-up duration: RTT1 - min(rest), typically 0.5-4 s.
func (l *Lab) Fig13() (Report, error) {
	trains, _, err := l.firstPingTrains()
	if err != nil {
		return Report{}, err
	}
	fa := core.AnalyzeFirstPing(trains)
	var b strings.Builder
	if len(fa.WakeEstimates) == 0 {
		b.WriteString("no wake estimates\n")
		return Report{ID: "fig13", Title: "Wake-up duration", Body: b.String()}, nil
	}
	ws := append([]time.Duration(nil), fa.WakeEstimates...)
	stats.SortDurations(ws)
	med := stats.Percentile(ws, 50)
	p90 := stats.Percentile(ws, 90)
	over85 := stats.FracAbove(ws, 8500*time.Millisecond)
	fmt.Fprintf(&b, "wake estimates: %d; median %s, p90 %s, >8.5s %.1f%%\n",
		len(ws), med.Round(10*time.Millisecond), p90.Round(10*time.Millisecond), 100*over85)
	return Report{
		ID:    "fig13",
		Title: "Negotiation/wake-up takes one-half to four seconds",
		Body:  b.String(),
		Metrics: []Metric{
			{"median wake-up estimate", "1.37s", med.Round(10 * time.Millisecond).String()},
			{"90th percentile wake-up estimate", "<4s", p90.Round(10 * time.Millisecond).String()},
			{"estimates above 8.5s", "2%", fmtPct(over85)},
		},
	}, nil
}

// Fig14 — first-ping behavior clusters by /24.
func (l *Lab) Fig14() (Report, error) {
	trains, _, err := l.firstPingTrains()
	if err != nil {
		return Report{}, err
	}
	fa := core.AnalyzeFirstPing(trains)
	var shares []float64
	for _, p := range fa.PrefixShare {
		if p.Classified > 0 {
			shares = append(shares, p.Share())
		}
	}
	sort.Float64s(shares)
	var b strings.Builder
	fmt.Fprintf(&b, "prefixes with classified addresses: %d\n", len(shares))
	if len(shares) > 0 {
		fmt.Fprintf(&b, "per-/24 share of first>max addresses: p25 %.2f, median %.2f, p75 %.2f\n",
			stats.PercentileFloat(shares, 25), stats.PercentileFloat(shares, 50), stats.PercentileFloat(shares, 75))
	}
	majority := 0
	for _, s := range shares {
		if s >= 0.5 {
			majority++
		}
	}
	frac := 0.0
	if len(shares) > 0 {
		frac = float64(majority) / float64(len(shares))
	}
	return Report{
		ID:    "fig14",
		Title: "Wake-up behavior is a property of providers (clusters by /24)",
		Body:  b.String(),
		Metrics: []Metric{
			{"prefixes where most addresses show the first-ping drop", "most prefixes", fmtPct(frac)},
		},
	}, nil
}

// Tab7 — the latency/loss patterns around >100 s responses.
func (l *Lab) Tab7() (Report, error) {
	q, err := l.Quantiles()
	if err != nil {
		return Report{}, err
	}
	var candidates []ipaddr.Addr
	for _, v := range q {
		if v.P99 >= 100*time.Second {
			candidates = append(candidates, v.Addr)
		}
	}
	targets := sampleEvery(candidates, l.Scale.SampleAddrs)

	w := NewWorld(l.popCfg)
	pr := scamper.New(w.Net, scamperSrc, ipmeta.NorthAmerica)
	defer pr.Close()
	for i, a := range targets {
		t0 := simnet.Time(i) * 41 * time.Millisecond
		pr.SchedulePing(a, scamper.ICMP, t0, l.Scale.TrainPings, time.Second)
	}
	w.Sched.Run()

	trains := make(map[ipaddr.Addr][]core.TrainSample)
	for _, a := range targets {
		trains[a] = toTrain(pr.ResultsFor(a, scamper.ICMP))
	}
	pc := core.ClassifyHighLatency(trains, 100*time.Second, time.Second)
	decayEvents := pc.Events[core.PatternLowLatencyDecay] + pc.Events[core.PatternLossDecay]
	sustainedPings := pc.Pings[core.PatternSustained]
	lossDecayEvents := pc.Events[core.PatternLossDecay]
	return Report{
		ID:    "tab7",
		Title: "Patterns of latency and loss around >100s responses",
		Body:  fmt.Sprintf("addresses probed: %d (of %d candidates), %d pings each\n%s", len(targets), len(candidates), l.Scale.TrainPings, pc.Format()),
		Metrics: []Metric{
			{"most events are decay (buffer flush)", "94 of 127", fmt.Sprintf("%d of %d", decayEvents, totalEvents(pc))},
			{"most >100s pings are in sustained episodes", "2994 of 5149", fmt.Sprintf("%d of %d", sustainedPings, totalPings(pc))},
			{"loss-then-decay is the most common event type", "81 events", fmt.Sprintf("%d events", lossDecayEvents)},
		},
	}, nil
}

func totalEvents(pc core.PatternCounts) int {
	n := 0
	for _, v := range pc.Events {
		n += v
	}
	return n
}

func totalPings(pc core.PatternCounts) int {
	n := 0
	for _, v := range pc.Pings {
		n += v
	}
	return n
}

// Rec60 — the paper's closing recommendation quantified: a 60 s timeout
// covers 98/98 comfortably, and retried pings are correlated with the
// original, so retries cannot substitute for longer timeouts.
func (l *Lab) Rec60() (Report, error) {
	q, err := l.Quantiles()
	if err != nil {
		return Report{}, err
	}
	matrix := core.TimeoutMatrix(q)
	cover9898 := matrix.At(98, 98)

	// Retry-correlation probe: short trains at 3 s spacing on a sample of
	// responsive addresses.
	targets := sampleEvery(addrsOf(q), l.Scale.SampleAddrs*2)
	w := NewWorld(l.popCfg)
	pr := scamper.New(w.Net, scamperSrc, ipmeta.NorthAmerica)
	defer pr.Close()
	// Stagger trains across several hours so some land inside congestion
	// and buffered-outage episodes; correlation is what happens *within*
	// an episode.
	for i, a := range targets {
		pr.SchedulePing(a, scamper.ICMP, simnet.Time(i)*11*time.Second, 40, 3*time.Second)
	}
	w.Sched.Run()
	trains := make(map[ipaddr.Addr][]core.TrainSample)
	for _, a := range targets {
		trains[a] = toTrain(pr.ResultsFor(a, scamper.ICMP))
	}
	pSlow, pGiven := core.RetryCorrelation(trains, 3*time.Second, true)
	lift := 0.0
	if pSlow > 0 {
		lift = pGiven / pSlow
	}
	var b strings.Builder
	fmt.Fprintf(&b, "98/98 minimum timeout: %s (60s covers it: %v)\n", fmtDur(cover9898), cover9898 <= 60*time.Second)
	fmt.Fprintf(&b, "P(probe slow) = %.3f; P(slow | previous slow) = %.3f (lift %.1fx)\n", pSlow, pGiven, lift)
	return Report{
		ID:    "rec60",
		Title: "60-second timeouts cover 98/98; retries are not independent samples",
		Body:  b.String(),
		Metrics: []Metric{
			{"60s covers 98% of pings from 98% of addresses", "yes (41s needed)", fmt.Sprintf("%v (%s needed)", cover9898 <= 60*time.Second, fmtDur(cover9898))},
			{"retry slowness lift over independence", ">>1x", fmt.Sprintf("%.1fx", lift)},
		},
	}, nil
}
