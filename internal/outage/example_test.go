package outage_test

import (
	"fmt"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/outage"
	"timeouts/internal/simnet"
	"timeouts/internal/survey"
)

// Example_outagedetect is the scenario that motivates the paper.
// Trinocular- and Thunderping-style detectors declare hosts or blocks down
// when probes time out — but against a population with NO real outages,
// every declared outage is false. It sweeps the probe timeout and shows
// short timeouts manufacturing loss and outages on healthy (slow) hosts.
func Example_outagedetect() {
	const seed = 7
	src := ipaddr.MustParse("240.0.4.1")
	world := func() (*netmodel.Population, *simnet.Network) {
		pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: 256})
		model := netmodel.NewModel(pop)
		model.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
		model.AddVantage(src, ipmeta.NorthAmerica)
		sched := &simnet.Scheduler{}
		return pop, simnet.NewNetwork(sched, model)
	}
	// monitor runs a Thunderping-style monitor over addrs with the timeout
	// and returns (false loss rate, false down-round rate).
	monitor := func(addrs []ipaddr.Addr, timeout time.Duration) (loss, down float64) {
		_, net := world()
		reps := outage.MonitorHosts(net, outage.HostMonitorConfig{
			Src: src, Timeout: timeout, Retries: 3, Rounds: 5,
		}, addrs)
		var probes, losses, downs, rounds int
		for _, r := range reps {
			probes += r.Probes
			losses += r.Losses
			downs += r.DownRounds
			rounds += r.Rounds
		}
		if probes > 0 {
			loss = float64(losses) / float64(probes)
		}
		if rounds > 0 {
			down = float64(downs) / float64(rounds)
		}
		return
	}

	// Pick monitoring targets the way Thunderping does: hosts that have
	// answered before. A short survey gives us the history.
	pop, net := world()
	var mem survey.MemWriter
	if _, err := survey.Run(net, survey.Config{
		Vantage: survey.VantageW, Blocks: pop.Blocks(), Cycles: 4, Seed: seed,
	}, &mem); err != nil {
		panic(err)
	}
	res := core.Match(mem.Records, core.MatchOptionsForCycles(4))
	var everyone, slow []ipaddr.Addr
	for _, v := range res.AddressQuantiles(true) {
		everyone = append(everyone, v.Addr)
		if v.P95 > 2*time.Second {
			slow = append(slow, v.Addr)
		}
	}
	// Thin both lists evenly across the address space.
	spread := func(addrs []ipaddr.Addr, n int) []ipaddr.Addr {
		if len(addrs) <= n {
			return addrs
		}
		out := make([]ipaddr.Addr, n)
		for i := range out {
			out[i] = addrs[i*len(addrs)/n]
		}
		return out
	}
	everyone, slow = spread(everyone, 400), spread(slow, 150)
	fmt.Printf("monitoring %d hosts (%d of them high-latency) — none ever goes down\n\n",
		len(everyone), len(slow))

	fmt.Printf("%9s | %16s %18s | %16s %18s\n", "timeout",
		"loss (all hosts)", "outages (all)", "loss (slow)", "outages (slow)")
	for _, timeout := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second,
		5 * time.Second, 10 * time.Second, 60 * time.Second} {
		lossA, downA := monitor(everyone, timeout)
		lossS, downS := monitor(slow, timeout)
		fmt.Printf("%9s | %15.2f%% %17.2f%% | %15.2f%% %17.2f%%\n",
			timeout, 100*lossA, 100*downA, 100*lossS, 100*downS)
	}

	fmt.Println("\nevery loss and every outage above is FALSE — caused only by the timeout.")
	fmt.Println("(compare: Trinocular and Thunderping use 3s; the paper recommends ~60s.)")

	// A Trinocular-style block-level view of the same effect.
	_, net2 := world()
	blocks := map[ipaddr.Prefix24][]ipaddr.Addr{}
	for _, a := range slow {
		blocks[a.Prefix()] = append(blocks[a.Prefix()], a)
	}
	breps := outage.MonitorBlocks(net2, outage.BlockMonitorConfig{
		Src: src, Timeout: 3 * time.Second, Rounds: 4,
	}, blocks)
	var outages, rounds int
	for _, r := range breps {
		outages += r.Outages
		rounds += r.Rounds
	}
	fmt.Printf("\nTrinocular-style /24 monitor over the slow blocks at 3s timeout: "+
		"%d false block outages in %d block-rounds\n", outages, rounds)
	// Output:
	// monitoring 400 hosts (150 of them high-latency) — none ever goes down
	//
	//   timeout | loss (all hosts)      outages (all) |      loss (slow)     outages (slow)
	//        1s |           10.61%              1.05% |           54.51%             10.00%
	//        2s |            5.36%              0.30% |           35.69%              5.33%
	//        3s |            3.48%              0.25% |           25.29%              4.27%
	//        5s |            2.68%              0.20% |           19.62%              3.87%
	//       10s |            2.35%              0.20% |           14.05%              2.93%
	//      1m0s |            1.96%              0.00% |           10.01%              1.73%
	//
	// every loss and every outage above is FALSE — caused only by the timeout.
	// (compare: Trinocular and Thunderping use 3s; the paper recommends ~60s.)
	//
	// Trinocular-style /24 monitor over the slow blocks at 3s timeout: 7 false block outages in 176 block-rounds
}

// Example_listenlong compares the paper's closing recommendation (§7) —
// "send another probe after 3 seconds, but continue listening" — head to
// head against the conventional fixed-timeout detector and a TCP-style
// adaptive-RTO detector, over the same healthy-but-slow host population.
func Example_listenlong() {
	src := ipaddr.MustParse("240.0.4.1")
	world := func() (*netmodel.Population, *simnet.Network) {
		pop := netmodel.New(netmodel.Config{Seed: 31, Blocks: 256})
		model := netmodel.NewModel(pop)
		model.AddVantage(src, ipmeta.NorthAmerica)
		sched := &simnet.Scheduler{}
		return pop, simnet.NewNetwork(sched, model)
	}

	// The victims: cellular hosts. None of them is ever down; every
	// declared outage below is the timeout's fault.
	pop, _ := world()
	var targets []ipaddr.Addr
	for i := 0; i < pop.NumAddrs() && len(targets) < 250; i++ {
		p := pop.Profile(pop.AddrAt(i))
		if p.Responsive && p.JoinTime == 0 && p.Class == netmodel.ClassCellular {
			targets = append(targets, p.Addr)
		}
	}
	const rounds = 6
	fmt.Printf("monitoring %d healthy cellular hosts, %d rounds each\n\n", len(targets), rounds)

	// Strategy 1: the conventional fixed 3-second timeout (Trinocular,
	// Thunderping, Scriptroute defaults).
	_, net1 := world()
	fixed := outage.MonitorHosts(net1, outage.HostMonitorConfig{
		Src: src, Timeout: 3 * time.Second, Retries: 3, Rounds: rounds,
	}, targets)
	var fProbes, fLoss, fDown int
	for _, r := range fixed {
		fProbes += r.Probes
		fLoss += r.Losses
		fDown += r.DownRounds
	}

	// Strategy 2: adaptive per-target RTO (SRTT + 4*RTTVAR with
	// exponential backoff), the "just predict it" approach.
	_, net2 := world()
	adaptive := outage.MonitorAdaptive(net2, outage.AdaptiveConfig{
		Src: src, InitialRTO: 3 * time.Second, MaxRTO: 60 * time.Second,
		Retries: 3, Rounds: rounds,
	}, targets)
	var aProbes, aLoss, aDown int
	var rtoSum time.Duration
	for _, r := range adaptive {
		aProbes += r.Probes
		aLoss += r.Losses
		aDown += r.DownRounds
		rtoSum += r.FinalRTO
	}

	// Strategy 3: the paper's recommendation — retransmit after 3 s for
	// responsiveness, but keep listening for 60 s.
	_, net3 := world()
	tcpish := outage.MonitorTCPStyle(net3, outage.StrategyConfig{
		Src: src, RetransmitAfter: 3 * time.Second, ListenFor: 60 * time.Second,
		Retransmits: 3, Rounds: rounds,
	}, targets)
	var tProbes, tDown, tLate, tFast int
	for _, r := range tcpish {
		tProbes += r.ProbesSent
		tDown += r.DownRounds
		tLate += r.AnsweredLate
		tFast += r.AnsweredFast
	}

	totalRounds := len(targets) * rounds
	fmt.Printf("%-34s %10s %14s %14s\n", "strategy", "probes", "false loss", "false outages")
	fmt.Printf("%-34s %10d %13.1f%% %13.2f%%\n", "fixed 3s timeout",
		fProbes, 100*float64(fLoss)/float64(fProbes), 100*float64(fDown)/float64(totalRounds))
	fmt.Printf("%-34s %10d %13.1f%% %13.2f%%\n", "adaptive RTO (srtt+4var, backoff)",
		aProbes, 100*float64(aLoss)/float64(aProbes), 100*float64(aDown)/float64(totalRounds))
	fmt.Printf("%-34s %10d %14s %13.2f%%\n", "retransmit@3s, listen 60s (paper)",
		tProbes, "n/a", 100*float64(tDown)/float64(totalRounds))

	fmt.Printf("\nTCP-style detail: %d rounds answered within 3s, %d rescued by the long listen window\n",
		tFast, tLate)
	fmt.Printf("adaptive detail: mean learned RTO = %v\n", (rtoSum / time.Duration(len(adaptive))).Round(100*time.Millisecond))
	fmt.Println("\nthe paper's point, §4.2 and §7: a retry is not an independent sample and a")
	fmt.Println("smoothed-history RTO cannot predict wake-up or buffered-outage delay; only")
	fmt.Println("continuing to listen converts those rounds from false outages into answers.")
	// Output:
	// monitoring 250 healthy cellular hosts, 6 rounds each
	//
	// strategy                               probes     false loss  false outages
	// fixed 3s timeout                         1908          23.5%          2.67%
	// adaptive RTO (srtt+4var, backoff)        2012          26.2%          1.00%
	// retransmit@3s, listen 60s (paper)        1904            n/a          0.93%
	//
	// TCP-style detail: 1203 rounds answered within 3s, 283 rescued by the long listen window
	// adaptive detail: mean learned RTO = 4.3s
	//
	// the paper's point, §4.2 and §7: a retry is not an independent sample and a
	// smoothed-history RTO cannot predict wake-up or buffered-outage delay; only
	// continuing to listen converts those rounds from false outages into answers.
}
