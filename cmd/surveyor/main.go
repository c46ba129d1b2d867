// Command surveyor runs an ISI-style survey against a synthetic population
// and writes the dataset in the binary record format, ready for cmd/analyze.
//
// Usage:
//
//	surveyor -o survey.tosv [-blocks 512] [-cycles 24] [-seed 42]
//	         [-vantage w|c|j|g] [-interval 11m] [-timeout 3s] [-parallel N]
//	         [-fault-seed N] [-fault-corrupt F] [-fault-truncate F]
//	         [-fault-dup F] [-fault-data F]
//	         [-metrics FILE] [-trace FILE] [-manifest FILE] [-debug-addr ADDR]
//
// With -parallel N (N > 1) the survey runs on the sharded parallel engine:
// N contiguous shards of the block list are probed concurrently and the
// record streams are merged deterministically, so the dataset is
// byte-identical to the sequential run. -parallel 0 selects one shard per
// CPU.
//
// The prober tracks outstanding probes in a small ring of per-slot bitmaps
// and the network model keeps its radio state in a bounded table, so
// memory stays bounded at internet-size -blocks values. The ring must span
// -timeout plus two expiry sweeps; an -interval too short for that is
// rejected with the smallest interval the timeout allows.
//
// The -fault-* flags drive the deterministic fault-injection layer: the
// wire rates corrupt, truncate or duplicate in-flight packets inside the
// simulation (the prober counts and skips undecodable packets), and
// -fault-data flips bits in the written dataset (per-byte probability), for
// exercising cmd/analyze -lenient. All faults are a pure function of
// -fault-seed, so a faulted run is exactly reproducible; with every rate at
// zero the output is byte-identical to a run without these flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"timeouts/internal/faults"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
	"timeouts/internal/survey"
)

func main() {
	var (
		out      = flag.String("o", "survey.tosv", "output dataset path")
		blocks   = flag.Int("blocks", 512, "population size in /24 blocks")
		cycles   = flag.Int("cycles", 24, "probing rounds (11 minutes each)")
		seed     = flag.Uint64("seed", 42, "population seed")
		vantage  = flag.String("vantage", "w", "vantage point: w, c, j or g")
		interval = flag.Duration("interval", 11*time.Minute, "probing interval")
		timeout  = flag.Duration("timeout", 3*time.Second, "matcher timeout")
		format   = flag.String("format", "tosv", "output format: tosv (fixed binary), compact (varint), or csv")
		catalog  = flag.String("catalog", "", "JSON AS-catalog file (default: built-in catalog)")
		parallel = flag.Int("parallel", 1, "shard count for the parallel engine (1 = sequential, 0 = one per CPU)")

		faultSeed     = flag.Uint64("fault-seed", 1, "fault-injection seed (faults are a pure function of it)")
		faultCorrupt  = flag.Float64("fault-corrupt", 0, "wire fault rate: bit-flip a delivered packet")
		faultTruncate = flag.Float64("fault-truncate", 0, "wire fault rate: truncate a delivered packet")
		faultDup      = flag.Float64("fault-dup", 0, "wire fault rate: duplicate a delivered packet")
		faultData     = flag.Float64("fault-data", 0, "dataset fault rate: per-byte bit-flip probability in the written file")
	)
	cli := obs.RegisterCLI()
	flag.Parse()
	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	if err := cli.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "surveyor:", err)
		os.Exit(1)
	}

	var vp survey.Vantage
	found := false
	for _, v := range survey.Vantages {
		if string(v.Name) == *vantage {
			vp, found = v, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "surveyor: unknown vantage %q\n", *vantage)
		os.Exit(2)
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
		fmt.Fprintln(os.Stderr, "surveyor:", err)
		os.Exit(2)
	}
	pop := netmodel.New(popCfg)

	var plan *faults.Plan
	if *faultCorrupt > 0 || *faultTruncate > 0 || *faultDup > 0 || *faultData > 0 {
		plan = &faults.Plan{
			Seed: *faultSeed,
			Wire: faults.WireConfig{
				CorruptRate:   *faultCorrupt,
				TruncateRate:  *faultTruncate,
				DuplicateRate: *faultDup,
			},
			Data: faults.DataConfig{FlipRate: *faultData},
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surveyor:", err)
		os.Exit(1)
	}
	sink0 := plan.CorruptWriter(f)
	hdr := survey.Header{Seed: *seed, Vantage: vp.Name}
	var (
		sink    survey.RecordWriter
		flush   func() error
		records func() uint64
	)
	switch *format {
	case "tosv":
		w := survey.NewWriter(sink0, hdr)
		sink, records = w, w.Count
	case "compact":
		w := survey.NewCompactWriter(sink0, hdr)
		sink, records = w, w.Count
	case "csv":
		w := survey.NewCSVWriter(sink0)
		sink, flush, records = w, w.Flush, w.Count
	default:
		fmt.Fprintf(os.Stderr, "surveyor: unknown format %q\n", *format)
		os.Exit(2)
	}
	start := time.Now()
	cfg := survey.Config{
		Vantage:  vp,
		Blocks:   pop.Blocks(),
		Interval: *interval,
		Cycles:   *cycles,
		Timeout:  *timeout,
		Seed:     *seed,
		Faults:   plan,
		Obs:      cli.Reg,
		Trace:    cli.Tracer,
	}
	var st survey.Stats
	if *parallel > 1 {
		st, err = survey.RunSharded(cfg, *parallel, func(int) simnet.Fabric {
			model := netmodel.NewModel(pop)
			model.AddVantage(vp.Addr, vp.Continent)
			return model
		}, sink)
	} else {
		model := netmodel.NewModel(pop)
		model.AddVantage(vp.Addr, vp.Continent)
		net := simnet.NewNetwork(&simnet.Scheduler{}, model)
		st, err = survey.Run(net, cfg, sink)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "surveyor:", err)
		os.Exit(1)
	}
	if flush != nil {
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, "surveyor:", err)
			os.Exit(1)
		}
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "surveyor:", err)
		os.Exit(1)
	}
	var fs *obs.FaultSummary
	if plan != nil {
		fs = &obs.FaultSummary{
			Seed:          plan.Seed,
			WireCorrupt:   plan.Wire.CorruptRate,
			WireTruncate:  plan.Wire.TruncateRate,
			WireDuplicate: plan.Wire.DuplicateRate,
			DataFlip:      plan.Data.FlipRate,
		}
	}
	if err := cli.Finish("surveyor", *seed, *parallel, fs); err != nil {
		fmt.Fprintln(os.Stderr, "surveyor:", err)
		os.Exit(1)
	}
	fmt.Printf("surveyed %d blocks x %d cycles from %c in %v\n",
		*blocks, *cycles, vp.Name, time.Since(start).Round(time.Millisecond))
	fmt.Printf("probes=%d matched=%d (%.1f%%) timeouts=%d unmatched=%d errors=%d\n",
		st.Probes, st.Matched, 100*st.ResponseRate(), st.Timeouts, st.Unmatched, st.Errors)
	if plan != nil {
		fmt.Printf("faults: seed=%d corrupt packets skipped=%d\n", plan.Seed, st.CorruptPackets)
	}
	fmt.Printf("dataset: %s (%d records, %s format)\n", *out, records(), *format)
}
