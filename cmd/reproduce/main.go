// Command reproduce regenerates the tables and figures of "Timeouts: Beware
// Surprisingly High Delay" (IMC 2015) against the synthetic population,
// printing each one next to the paper's reference numbers.
//
// Usage:
//
//	reproduce [-scale quick|default|full] [-exp id[,id...]] [-list] [-seed N]
//	          [-parallel N]
//	          [-metrics FILE] [-trace FILE] [-manifest FILE] [-debug-addr ADDR]
//
// Without -exp, every experiment in the registry runs in paper order. With
// -parallel N (N > 1) the shared survey and Zmap workloads run on the
// sharded parallel engine; the deterministic merge keeps the datasets — and
// therefore every reported number — byte-identical to the sequential run.
// -parallel 0 selects one shard per CPU. Prober, scanner and model state is
// flat and rank-indexed throughout, so it stays bounded at large scales.
//
// The observability flags collect metrics and phase spans from every
// workload the lab runs — the survey, the matcher over it (the match.*
// series) and the Zmap scans — plus a wall-clock span per experiment;
// -debug-addr serves pprof and expvar while the run is live. For a fixed
// seed the -metrics snapshot is byte-identical whatever -parallel is.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"timeouts/internal/experiments"
	"timeouts/internal/obs"
)

func main() {
	var (
		scaleName = flag.String("scale", "quick", "workload scale: quick, default, or full")
		expList   = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		seed      = flag.Uint64("seed", 0, "override the population seed")
		dataDir   = flag.String("data", "", "also export the figures' plottable series as CSV files into this directory")
		parallel  = flag.Int("parallel", 1, "shard count for the survey/scan workloads (1 = sequential, 0 = one per CPU)")
	)
	cli := obs.RegisterCLI()
	flag.Parse()
	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	if err := cli.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-11s %s\n", e.ID, e.Title)
		}
		return
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick
	case "default":
		scale = experiments.Default
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "reproduce: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	var entries []experiments.Entry
	if *expList == "" {
		entries = experiments.Registry
	} else {
		for _, id := range strings.Split(*expList, ",") {
			e, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "reproduce: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			entries = append(entries, e)
		}
	}

	lab := experiments.NewLab(scale)
	lab.Parallel = *parallel
	lab.Obs = cli.Reg
	lab.Trace = cli.Tracer
	start := time.Now()
	for _, e := range entries {
		t0 := time.Now()
		done := cli.Tracer.StartWall("exp." + e.ID)
		rep, err := e.Run(lab)
		done()
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(rep.Format())
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	if *dataDir != "" {
		if err := lab.ExportData(*dataDir); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: exporting data:", err)
			os.Exit(1)
		}
		fmt.Printf("figure data series written to %s\n", *dataDir)
	}
	if err := cli.Finish("reproduce", scale.Seed, *parallel, nil); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
	fmt.Printf("all %d experiments completed in %v (scale %s, seed %d)\n",
		len(entries), time.Since(start).Round(time.Millisecond), *scaleName, scale.Seed)
}
