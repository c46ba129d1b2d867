// Command pingsim is `ping` against the synthetic Internet: it prints the
// familiar per-probe lines, but the destination is a modeled host — so you
// can watch the paper's phenomena happen: the slow first reply of a
// cellular radio waking up, the decaying RTTs of a buffered-outage flush,
// the satellite's unshakable half-second floor.
//
// Usage:
//
//	pingsim [-blocks 512] [-seed 42] [-c 10] [-i 1s] [-W 60s] [addr]
//	        [-metrics FILE] [-trace FILE] [-manifest FILE] [-debug-addr ADDR]
//	pingsim -class cellular     # pick a host of that class to probe
//
// Without an address, a cellular host is chosen (the paper's protagonist).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/scamper"
	"timeouts/internal/simnet"
	"timeouts/internal/stats"
)

func main() {
	var (
		blocks    = flag.Int("blocks", 512, "population size in /24 blocks")
		seed      = flag.Uint64("seed", 42, "population seed")
		count     = flag.Int("c", 10, "probes to send")
		interval  = flag.Duration("i", time.Second, "inter-probe interval")
		timeout   = flag.Duration("W", 60*time.Second, "listen window after the last probe")
		className = flag.String("class", "cellular", "host class to pick when no address is given")
		startAt   = flag.Duration("at", 0, "simulation time to start probing (episodes vary over time)")
	)
	cli := obs.RegisterCLI()
	flag.Parse()
	if err := cli.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "pingsim:", err)
		os.Exit(1)
	}

	popCfg := netmodel.Config{Seed: *seed, Blocks: *blocks}
	if err := popCfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pingsim:", err)
		os.Exit(2)
	}
	pop := netmodel.New(popCfg)
	var dst ipaddr.Addr
	if flag.NArg() >= 1 {
		a, err := ipaddr.Parse(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "pingsim:", err)
			os.Exit(2)
		}
		dst = a
	} else {
		var wantClass netmodel.Class
		switch *className {
		case "server":
			wantClass = netmodel.ClassServer
		case "quiet":
			wantClass = netmodel.ClassQuiet
		case "dsl":
			wantClass = netmodel.ClassDSL
		case "congested":
			wantClass = netmodel.ClassCongested
		case "cellular":
			wantClass = netmodel.ClassCellular
		case "satellite":
			wantClass = netmodel.ClassSatellite
		default:
			fmt.Fprintf(os.Stderr, "pingsim: unknown class %q\n", *className)
			os.Exit(2)
		}
		for i := 0; i < pop.NumAddrs(); i++ {
			p := pop.Profile(pop.AddrAt(i))
			if p.Responsive && p.JoinTime == 0 && p.Class == wantClass {
				dst = p.Addr
				break
			}
		}
		if dst == 0 {
			fmt.Fprintf(os.Stderr, "pingsim: no %s host in this population\n", *className)
			os.Exit(1)
		}
	}
	pr := pop.Profile(dst)
	as := "unknown AS"
	if pr.AS.ASN != 0 {
		as = fmt.Sprintf("AS%d %s (%s, %s)", pr.AS.ASN, pr.AS.Owner, pr.AS.Type, pr.AS.Continent)
	}
	fmt.Printf("PING %s — %s\n", dst, as)
	if pr.Responsive {
		fmt.Printf("host class: %s, severity %.2f\n\n", pr.Class, pr.Severity)
	} else {
		fmt.Printf("host is not responsive; expect silence\n\n")
	}

	model := netmodel.NewModel(pop)
	src := ipaddr.MustParse("240.0.3.1")
	model.AddVantage(src, ipmeta.NorthAmerica)
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, model)
	prob := scamper.New(net, src, ipmeta.NorthAmerica)
	defer prob.Close()
	if cli.Reg != nil {
		prob.SetObserver(cli.Reg)
	}
	cli.Tracer.SimSpan("ping.train", *startAt, *startAt+time.Duration(*count)**interval)

	prob.SchedulePing(dst, scamper.ICMP, simnet.Time(*startAt), *count, *interval)
	// Keep listening (tcpdump-style) for the window after the last probe.
	sched.Run()
	_ = timeout
	if err := cli.Finish("pingsim", *seed, 1, nil); err != nil {
		fmt.Fprintln(os.Stderr, "pingsim:", err)
		os.Exit(1)
	}

	var rtts []time.Duration
	lost := 0
	for _, r := range prob.ResultsFor(dst, scamper.ICMP) {
		if !r.Responded {
			lost++
			fmt.Printf("probe seq=%-3d  *** no response\n", r.Seq)
			continue
		}
		rtts = append(rtts, r.RTT)
		note := ""
		switch {
		case r.Seq == 0 && r.RTT > time.Second:
			note = "   <- first-ping wake-up?"
		case r.RTT > 100*time.Second:
			note = "   <- sleepy (buffered outage)"
		case r.RTT > 5*time.Second:
			note = "   <- congestion episode"
		}
		fmt.Printf("probe seq=%-3d  time=%v%s\n", r.Seq, r.RTT.Round(100*time.Microsecond), note)
	}
	fmt.Printf("\n--- %s ping statistics ---\n", dst)
	fmt.Printf("%d probes transmitted, %d received, %.0f%% loss\n",
		*count, len(rtts), 100*float64(lost)/float64(*count))
	if len(rtts) > 0 {
		stats.SortDurations(rtts)
		fmt.Printf("rtt min/median/max = %v / %v / %v\n",
			rtts[0].Round(100*time.Microsecond),
			stats.Percentile(rtts, 50).Round(100*time.Microsecond),
			rtts[len(rtts)-1].Round(100*time.Microsecond))
	}
	if len(rtts) >= 2 && rtts[len(rtts)-1] > 2*rtts[0] {
		fmt.Println("note: a fixed 3s timeout would have mislabeled the slow replies as loss;")
		fmt.Println("the paper recommends retransmitting early but listening ~60s.")
	}
}
