// Command zmapscan runs a Zmap-style stateless scan of a synthetic
// population and prints the RTT distribution and broadcast-responder
// findings — the workload behind the paper's Figures 2 and 7 and Tables
// 3-6.
//
// Usage:
//
//	zmapscan [-blocks 512] [-seed 42] [-scanseed 1] [-duration 90m] [-top 10]
//	         [-parallel N] [-fault-seed N] [-fault-corrupt F]
//	         [-fault-truncate F] [-fault-dup F]
//	         [-metrics FILE] [-trace FILE] [-manifest FILE] [-debug-addr ADDR]
//
// With -parallel N (N > 1) the scan runs on the sharded parallel engine: N
// contiguous shards of the probe permutation execute concurrently, each
// reporting on the destinations it probed, and the shard reports add up to
// the sequential scan's, so the output is byte-identical to it. -parallel 0
// selects one shard per CPU.
//
// Scanner and model state is flat and rank-indexed (a self-rescheduling
// probe pump, a first-response bitset, a bounded radio-state table), and
// the report is built while responses arrive: each responder's first RTT
// (8 bytes, for exact percentiles), per-/24 turtle tallies and the
// broadcast findings. No response is kept, so memory stays bounded at
// internet-size -blocks values.
//
// The -fault-* flags drive the deterministic fault-injection layer: matching
// rates of in-flight packets are bit-flipped, truncated or duplicated inside
// the simulation, and the scanner counts-and-skips whatever no longer
// decodes. Faults are a pure function of -fault-seed; with every rate at
// zero the scan is byte-identical to one without these flags.
//
// The observability flags are opt-in and deterministic: for a fixed seed the
// -metrics snapshot and the manifest's run section are byte-identical
// whatever -parallel is (make obs-check enforces this).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/faults"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
	"timeouts/internal/stats"
	"timeouts/internal/zmapper"
)

func main() {
	var (
		blocks   = flag.Int("blocks", 512, "population size in /24 blocks")
		seed     = flag.Uint64("seed", 42, "population seed")
		scanseed = flag.Uint64("scanseed", 1, "scan-order seed")
		duration = flag.Duration("duration", 90*time.Minute, "scan duration (simulated)")
		top      = flag.Int("top", 10, "AS ranking size")
		catalog  = flag.String("catalog", "", "JSON AS-catalog file (default: built-in catalog)")
		parallel = flag.Int("parallel", 1, "shard count for the parallel engine (1 = sequential, 0 = one per CPU)")

		faultSeed     = flag.Uint64("fault-seed", 1, "fault-injection seed (faults are a pure function of it)")
		faultCorrupt  = flag.Float64("fault-corrupt", 0, "wire fault rate: bit-flip a delivered packet")
		faultTruncate = flag.Float64("fault-truncate", 0, "wire fault rate: truncate a delivered packet")
		faultDup      = flag.Float64("fault-dup", 0, "wire fault rate: duplicate a delivered packet")
	)
	cli := obs.RegisterCLI()
	flag.Parse()
	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	if err := cli.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "zmapscan:", err)
		os.Exit(1)
	}

	var specs []netmodel.ASSpec
	if *catalog != "" {
		cf, err := os.Open(*catalog)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		specs, err = netmodel.ReadCatalog(cf)
		cf.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	popCfg := netmodel.Config{Seed: *seed, Blocks: *blocks, Catalog: specs}
	if err := popCfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "zmapscan:", err)
		os.Exit(2)
	}
	pop := netmodel.New(popCfg)
	var plan *faults.Plan
	if *faultCorrupt > 0 || *faultTruncate > 0 || *faultDup > 0 {
		plan = &faults.Plan{
			Seed: *faultSeed,
			Wire: faults.WireConfig{
				CorruptRate:   *faultCorrupt,
				TruncateRate:  *faultTruncate,
				DuplicateRate: *faultDup,
			},
		}
	}
	src := ipaddr.MustParse("240.0.2.1")
	cfg := zmapper.Config{
		Src: src, Continent: ipmeta.NorthAmerica,
		TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
		Duration: *duration, Seed: *scanseed,
		Faults: plan,
		Obs:    cli.Reg, Trace: cli.Tracer,
	}

	start := time.Now()
	sc, err := zmapper.RunSharded(cfg, *parallel, func(int) simnet.Fabric {
		model := netmodel.NewModel(pop)
		model.AddVantage(src, ipmeta.NorthAmerica)
		return model
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "zmapscan:", err)
		os.Exit(1)
	}
	var fs *obs.FaultSummary
	if plan != nil {
		fs = &obs.FaultSummary{
			Seed:          plan.Seed,
			WireCorrupt:   plan.Wire.CorruptRate,
			WireTruncate:  plan.Wire.TruncateRate,
			WireDuplicate: plan.Wire.DuplicateRate,
		}
	}
	if err := cli.Finish("zmapscan", *seed, *parallel, fs); err != nil {
		fmt.Fprintln(os.Stderr, "zmapscan:", err)
		os.Exit(1)
	}
	rtts := sc.RTTPercentiles()
	fmt.Printf("scanned %d addresses in %v (wall), %d responders\n",
		sc.ProbesSent, time.Since(start).Round(time.Millisecond), len(rtts))
	if plan != nil {
		fmt.Printf("faults: seed=%d corrupt packets skipped=%d\n", plan.Seed, sc.CorruptPackets)
	}
	if len(rtts) == 0 {
		return
	}
	fmt.Printf("RTT: median %v  p95 %v  p99 %v  p99.9 %v\n",
		stats.Percentile(rtts, 50).Round(time.Millisecond),
		stats.Percentile(rtts, 95).Round(time.Millisecond),
		stats.Percentile(rtts, 99).Round(time.Millisecond),
		stats.Percentile(rtts, 99.9).Round(10*time.Millisecond))
	fmt.Printf("addresses >1s: %.2f%%   >100s: %.3f%%\n",
		100*stats.FracAbove(rtts, time.Second),
		100*stats.FracAbove(rtts, 100*time.Second))

	b := sc.Broadcast
	fmt.Printf("broadcast responders: %d (triggered at octets 255:%d 0:%d 127:%d 128:%d)\n",
		len(b.Responders), b.ProbedBroadcast[255], b.ProbedBroadcast[0],
		b.ProbedBroadcast[127], b.ProbedBroadcast[128])

	scans := []core.ScanTallies{sc.Turtles}
	fmt.Printf("\nASes with the most addresses >1s (turtles):\n%s",
		core.FormatASRanks(core.RankASes(scans, pop.DB(), core.Turtles, *top)))
	fmt.Printf("\nContinents:\n%s",
		core.FormatContinentRanks(core.RankContinents(scans, pop.DB(), core.Turtles)))
}
