// Large-population benchmarks: one full scan, one survey cycle, and a
// multi-cycle survey matched and reported, at populations big enough for
// per-address state to dominate if it crept back in (see DESIGN.md §9 and
// §17). Each reports its peak live heap — an
// obs.HeapSampler threaded through the output sink, so the figure is
// scoped to the run rather than to whatever earlier benchmarks in the
// shared process already forced — and BENCH_<date>.json carries it for the
// `make bench-compare` gate.
//
// `make scale-check` (scale_test.go) runs the same workloads at full
// internet-demonstration scale — a 2^24-address scan and a 4M-address
// survey — under hard heap budgets.
package timeouts

import (
	"testing"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
	"timeouts/internal/survey"
	"timeouts/internal/zmapper"
)

// scaleScanBlocks sizes the benchmark scan population: 1024 /24 blocks =
// 262,144 addresses, one full stateless scan per iteration.
const scaleScanBlocks = 1024

// scaleSurveyBlocks sizes the benchmark survey population: 512 /24 blocks =
// 131,072 addresses, one probing cycle per iteration.
const scaleSurveyBlocks = 512

// countRecords is a survey.RecordWriter that only counts — the analogue of
// streaming records to disk without charging the benchmark for a dataset
// buffer. sample, when set, is called per record (a HeapSampler hook).
type countRecords struct {
	n      uint64
	sample func()
}

func (c *countRecords) Write(survey.Record) error {
	c.n++
	if c.sample != nil {
		c.sample()
	}
	return nil
}

// heapSampleEvery is the HeapSampler cadence: one live-heap reading per
// 4096 output events keeps the measurement overhead far below the event
// loop's own cost.
const heapSampleEvery = 4096

func BenchmarkScaleScan(b *testing.B) {
	pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: scaleScanBlocks})
	src := ipaddr.MustParse("240.0.2.1")
	cfg := zmapper.Config{
		Src: src, Continent: ipmeta.NorthAmerica,
		TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
		Seed: 42,
	}
	fabric := func(int) simnet.Fabric {
		model := netmodel.NewModel(pop)
		model.AddVantage(src, ipmeta.NorthAmerica)
		return model
	}
	b.ReportAllocs()
	sampler := obs.NewHeapSampler(heapSampleEvery)
	b.ResetTimer()
	var responses uint64
	for i := 0; i < b.N; i++ {
		counts, err := zmapper.RunShardedInto(cfg, 1, fabric, func(zmapper.Response) {
			responses++
			sampler.Sample()
		})
		if err != nil {
			b.Fatal(err)
		}
		if counts.ProbesSent != uint64(pop.NumAddrs()) {
			b.Fatalf("sent %d probes, want %d", counts.ProbesSent, pop.NumAddrs())
		}
	}
	if responses == 0 {
		b.Fatal("no responses")
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pop.NumAddrs()), "ns/probe")
	sampler.Report(b)
}

func BenchmarkScaleSurvey(b *testing.B) {
	pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: scaleSurveyBlocks})
	cfg := survey.Config{
		Vantage: survey.VantageW, Blocks: pop.Blocks(),
		Cycles: 1, Seed: 42,
	}
	b.ReportAllocs()
	sampler := obs.NewHeapSampler(heapSampleEvery)
	b.ResetTimer()
	sink := countRecords{sample: sampler.Sample}
	for i := 0; i < b.N; i++ {
		model := netmodel.NewModel(pop)
		model.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
		net := simnet.NewNetwork(&simnet.Scheduler{}, model)
		st, err := survey.Run(net, cfg, &sink)
		if err != nil {
			b.Fatal(err)
		}
		if st.Probes == 0 {
			b.Fatal("no probes")
		}
	}
	if sink.n == 0 {
		b.Fatal("no records")
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pop.NumAddrs()), "ns/probe")
	sampler.Report(b)
}

// scaleMatchCycles is how many survey cycles BenchmarkScaleMatch matches:
// enough revisits that responders hold several samples each while most of
// the population stays quiet, as in a real survey.
const scaleMatchCycles = 8

// matchRecords is a survey.RecordWriter that folds each record into a
// StreamMatcher — analyze's pipeline without the dataset — and calls sample
// (a HeapSampler hook) per record.
type matchRecords struct {
	m      *core.StreamMatcher
	sample func()
}

func (s *matchRecords) Write(rec survey.Record) error {
	s.m.Observe(rec)
	s.sample()
	return nil
}

// BenchmarkScaleMatch surveys BenchmarkScaleSurvey's population for
// scaleMatchCycles cycles straight into a StreamMatcher, then finalizes the
// match and renders the report. Its peak-heap-B is dominated by the
// matcher's per-address state, which is what it gates.
func BenchmarkScaleMatch(b *testing.B) {
	pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: scaleSurveyBlocks})
	cfg := survey.Config{
		Vantage: survey.VantageW, Blocks: pop.Blocks(),
		Cycles: scaleMatchCycles, Seed: 42,
	}
	opt := core.MatchOptionsForCycles(scaleMatchCycles)
	b.ReportAllocs()
	sampler := obs.NewHeapSampler(heapSampleEvery)
	b.ResetTimer()
	var records uint64
	for i := 0; i < b.N; i++ {
		model := netmodel.NewModel(pop)
		model.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
		net := simnet.NewNetwork(&simnet.Scheduler{}, model)
		sink := matchRecords{m: core.NewStreamMatcher(opt), sample: sampler.Sample}
		if _, err := survey.Run(net, cfg, &sink); err != nil {
			b.Fatal(err)
		}
		// The matcher holds its whole state now. Read the live heap while
		// it does: a run may end before a GC completes, and per-record
		// samples would then miss it.
		b.StopTimer()
		sampler.Peak()
		b.StartTimer()
		records += sink.m.Records()
		if core.RenderReport(sink.m.Finalize(), false) == "" {
			b.Fatal("empty report")
		}
	}
	if records == 0 {
		b.Fatal("no records")
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
	sampler.Report(b)
}
