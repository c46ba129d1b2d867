package core_test

import (
	"fmt"
	"sort"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/scamper"
	"timeouts/internal/simnet"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

func ExampleMatch() {
	// A probe to 1.0.0.10 timed out at t=0; 17 seconds later an echo
	// response arrived from the same address. The paper's matching
	// recovers the 17 s latency sample the prober's timeout discarded.
	addr := ipaddr.MustParse("1.0.0.10")
	records := []survey.Record{
		{Type: survey.RecTimeout, Addr: addr, When: 0},
		{Type: survey.RecUnmatched, Addr: addr, When: 17 * time.Second, RTT: 1},
		{Type: survey.RecMatched, Addr: addr, When: 660 * time.Second, RTT: 150 * time.Millisecond},
	}
	res := core.Match(records, core.Options{})
	ar := res.Lookup(addr)
	fmt.Println("survey-detected:", ar.Matched)
	fmt.Println("recovered delayed:", ar.Delayed)
	// Output:
	// survey-detected: [150ms]
	// recovered delayed: [17s]
}

func ExampleClassifyTrain() {
	// A 10-ping train against a cellular host: the first ping pays the
	// radio wake-up, the rest are fast — the paper's Figure 12 signature.
	train := []core.TrainSample{
		{Seq: 0, SentAt: 0, Responded: true, RTT: 2300 * time.Millisecond},
		{Seq: 1, SentAt: 1 * time.Second, Responded: true, RTT: 1300 * time.Millisecond},
		{Seq: 2, SentAt: 2 * time.Second, Responded: true, RTT: 310 * time.Millisecond},
		{Seq: 3, SentAt: 3 * time.Second, Responded: true, RTT: 290 * time.Millisecond},
		{Seq: 4, SentAt: 4 * time.Second, Responded: true, RTT: 305 * time.Millisecond},
	}
	fmt.Println(core.ClassifyTrain(train))
	// Output:
	// first>max
}

func ExampleClassifyHighLatency() {
	// A buffered-outage flush: after 30 normal pings the link drops, and
	// at t=150s every buffered probe is released together — measured RTTs
	// decay by exactly the probe spacing (Table 7's "decay" patterns).
	var train []core.TrainSample
	for i := 0; i < 200; i++ {
		s := core.TrainSample{Seq: i, SentAt: time.Duration(i) * time.Second, Responded: true}
		switch {
		case i < 30 || i >= 150:
			s.RTT = 200 * time.Millisecond
		default:
			s.RTT = 150*time.Second - s.SentAt
		}
		train = append(train, s)
	}
	pc := core.ClassifyHighLatency(
		map[ipaddr.Addr][]core.TrainSample{ipaddr.MustParse("1.0.0.1"): train},
		100*time.Second, time.Second)
	fmt.Println("decay events:", pc.Events[core.PatternLowLatencyDecay])
	// Output:
	// decay events: 1
}

// Example_quickstart builds a synthetic Internet population, surveys it the
// way ISI's Internet surveys did, runs the paper's matching-and-filtering
// analysis, and prints the minimum-timeout matrix (Table 2).
func Example_quickstart() {
	// 1. A seeded population: 256 /24 blocks of cellular carriers,
	//    broadband eyeballs, satellite ISPs and datacenters.
	pop := netmodel.New(netmodel.Config{Seed: 2015, Blocks: 256})

	// 2. Wire it to a discrete-event network with the vantage point in
	//    Marina del Rey ("w").
	model := netmodel.NewModel(pop)
	model.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, model)

	// 3. Survey every address once per 11-minute cycle with the standard
	//    3-second matching timeout.
	const cycles = 18
	var records survey.MemWriter
	st, err := survey.Run(net, survey.Config{
		Vantage: survey.VantageW,
		Blocks:  pop.Blocks(),
		Cycles:  cycles,
		Seed:    2015,
	}, &records)
	if err != nil {
		panic(err)
	}
	fmt.Printf("survey: %d probes, %.1f%% answered in time, %d timed out, %d unmatched responses\n\n",
		st.Probes, 100*st.ResponseRate(), st.Timeouts, st.Unmatched)

	// 4. The paper's analysis: recover delayed responses from unmatched
	//    records, filter broadcast and duplicate responders.
	res := core.Match(records.Records, core.MatchOptionsForCycles(cycles))
	t1 := res.BuildTable1()
	fmt.Printf("Table 1 — how matching and filtering change the dataset:\n%s\n", t1.Format())

	// 5. Aggregate per address and print the headline table.
	q := res.AddressQuantiles(true)
	matrix := core.TimeoutMatrix(q)
	fmt.Printf("Table 2 — minimum timeout to capture c%% of pings from r%% of addresses:\n%s\n",
		matrix.FormatSeconds())

	frac := core.FracAddrsAbove(q, 95, 5*time.Second)
	fmt.Printf("the paper's headline, reproduced: %.1f%% of addresses would see a false\n", 100*frac)
	fmt.Printf("loss rate of at least 5%% under a 5-second timeout; covering 98/98 needs %s.\n",
		matrix.At(98, 98).Round(time.Second))
	fmt.Println("recommendation (§7): send a follow-up probe after ~3s, but keep listening ~60s.")
	// Output:
	// survey: 1179648 probes, 22.0% answered in time, 901700 timed out, 1667705 unmatched responses
	//
	// Table 1 — how matching and filtering change the dataset:
	//                                Packets    Addresses
	// Survey-detected                 259804        14725
	// Naive matching                  262580        14796
	// Broadcast responses               1215           69
	// Duplicate responses            1660284          133
	// Survey + Delayed                259004        14594
	//
	// Table 2 — minimum timeout to capture c% of pings from r% of addresses:
	//      % of pings ->       1%      50%      80%      90%      95%      98%      99%
	//           1% addrs     0.02     0.02     0.03     0.03     0.04     0.04     0.04
	//          50% addrs     0.19     0.21     0.24     0.26     0.29     0.29     0.29
	//          80% addrs     0.25     0.30     0.38     0.48     0.66     0.66     0.66
	//          90% addrs     0.29     0.71     0.95     1.21     1.99     1.99     1.99
	//          95% addrs     0.34     1.15     2.19     3.47     5.02     5.02     5.02
	//          98% addrs     0.72     1.56     3.14     5.16       11       11       11
	//          99% addrs     0.90     1.80     3.79     7.00       59       59       59
	//
	// the paper's headline, reproduced: 5.0% of addresses would see a false
	// loss rate of at least 5% under a 5-second timeout; covering 98/98 needs 11s.
	// recommendation (§7): send a follow-up probe after ~3s, but keep listening ~60s.
}

// Example_firstping detects first-ping wake-up (§6.3): cellular devices hold
// the first probe while the radio negotiates a channel, so RTT1 is inflated
// and RTT1-RTT2 equals the probe spacing. It reruns the paper's protocol —
// screen with two pings, wait ~80 s, then a 10-ping train — and classifies
// every screened address.
func Example_firstping() {
	pop := netmodel.New(netmodel.Config{Seed: 99, Blocks: 384})
	model := netmodel.NewModel(pop)
	src := ipaddr.MustParse("240.0.3.1")
	model.AddVantage(src, ipmeta.NorthAmerica)
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, model)
	pr := scamper.New(net, src, ipmeta.NorthAmerica)
	defer pr.Close()

	// Candidates: cellular addresses (in the paper these were selected by
	// median survey latency >= 1 s; here we can consult the model, which a
	// real measurement never could — see Example_quickstart for the
	// measurement-only path).
	var targets []ipaddr.Addr
	for i := 0; i < pop.NumAddrs() && len(targets) < 600; i++ {
		p := pop.Profile(pop.AddrAt(i))
		if p.Responsive && p.JoinTime == 0 && p.Class == netmodel.ClassCellular {
			targets = append(targets, p.Addr)
		}
	}
	fmt.Printf("probing %d cellular addresses: 2 screening pings, 80s pause, 10-ping train\n\n", len(targets))

	for i, a := range targets {
		t0 := simnet.Time(i) * 150 * time.Millisecond
		pr.SchedulePing(a, scamper.ICMP, t0, 2, 5*time.Second)
		pr.SchedulePing(a, scamper.ICMP, t0+90*time.Second, 10, time.Second)
	}
	sched.Run()

	trains := make(map[ipaddr.Addr][]core.TrainSample)
	for _, a := range targets {
		rs := pr.ResultsFor(a, scamper.ICMP)
		if len(rs) < 12 {
			continue
		}
		train := make([]core.TrainSample, 0, 10)
		for _, r := range rs[2:] {
			train = append(train, core.TrainSample{
				Seq: r.Seq, SentAt: time.Duration(r.SentAt), Responded: r.Responded, RTT: r.RTT,
			})
		}
		trains[a] = train
	}

	fa := core.AnalyzeFirstPing(trains)
	fmt.Println("classification (paper §6.3):")
	for c := core.FirstAboveMax; c <= core.TooFewResponses; c++ {
		fmt.Printf("  %-22s %5d\n", c.String(), fa.Counts[c])
	}
	fmt.Printf("\nRTT1 > max(rest) for %.0f%% of classified addresses (paper: ~2/3)\n",
		100*fa.FracAboveMax())

	if len(fa.WakeEstimates) > 0 {
		ws := append([]time.Duration(nil), fa.WakeEstimates...)
		stats.SortDurations(ws)
		fmt.Printf("wake-up duration (RTT1 - min rest): median %v, p90 %v, >8.5s %.1f%% (paper: 1.37s / <4s / 2%%)\n",
			stats.Percentile(ws, 50).Round(10*time.Millisecond),
			stats.Percentile(ws, 90).Round(10*time.Millisecond),
			100*stats.FracAbove(ws, 8500*time.Millisecond))
	}

	// Figure 12's detector: a drop from RTT1 to RTT2 predicts the
	// overestimate.
	fmt.Println("\nP(RTT1 was an overestimate | observed RTT1-RTT2):")
	for _, pt := range fa.DropProbability(250*time.Millisecond, 0, 1250*time.Millisecond) {
		fmt.Printf("  drop ~%-6v -> %.2f  (n=%d)\n", pt.Delta, pt.P, pt.N)
	}

	// Figure 14: the behavior clusters by /24.
	var shares []float64
	for _, p := range fa.PrefixShare {
		if p.Classified > 0 {
			shares = append(shares, p.Share())
		}
	}
	sort.Float64s(shares)
	if len(shares) > 0 {
		fmt.Printf("\nper-/24 share of wake-up addresses: median %.2f over %d prefixes (clusters by provider)\n",
			stats.PercentileFloat(shares, 50), len(shares))
	}
	// Output:
	// probing 600 cellular addresses: 2 screening pings, 80s pause, 10-ping train
	//
	// classification (paper §6.3):
	//   first>max                429
	//   median<first<=max         73
	//   first<=median             69
	//   no-first-response         29
	//   too-few-responses          0
	//
	// RTT1 > max(rest) for 75% of classified addresses (paper: ~2/3)
	// wake-up duration (RTT1 - min rest): median 1.27s, p90 3.55s, >8.5s 1.2% (paper: 1.37s / <4s / 2%)
	//
	// P(RTT1 was an overestimate | observed RTT1-RTT2):
	//   drop ~0s     -> 0.28  (n=80)
	//   drop ~250ms  -> 0.83  (n=52)
	//   drop ~500ms  -> 1.00  (n=74)
	//   drop ~750ms  -> 1.00  (n=160)
	//   drop ~1s     -> 1.00  (n=102)
	//
	// per-/24 share of wake-up addresses: median 0.73 over 9 prefixes (clusters by provider)
}
