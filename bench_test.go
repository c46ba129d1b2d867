// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index), plus ablation
// and substrate micro-benchmarks. The expensive shared workloads (the
// survey dataset and the Zmap scans) are built once per process by the
// shared lab; each benchmark then regenerates its experiment's data per
// iteration.
//
// Run with:
//
//	go test -bench=. -benchmem
package timeouts

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/experiments"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/outage"
	"timeouts/internal/simnet"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
	"timeouts/internal/wire"
	"timeouts/internal/zmapper"
)

var (
	labOnce  sync.Once
	benchLab *experiments.Lab
)

// The benchmark helpers run after lab() has already built and memoized every
// workload, so the error returns cannot fire; treat them as fatal anyway.
func benchSurvey(b *testing.B, l *experiments.Lab) []survey.Record {
	recs, _, err := l.Survey()
	if err != nil {
		b.Fatal(err)
	}
	return recs
}

func benchMatch(b *testing.B, l *experiments.Lab) *core.Result {
	m, err := l.Match()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchQuantiles(b *testing.B, l *experiments.Lab) []core.AddrQuantiles {
	q, err := l.Quantiles()
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func benchLabScans(b *testing.B, l *experiments.Lab, n int) []*zmapper.Scan {
	scans, err := l.Scans(n)
	if err != nil {
		b.Fatal(err)
	}
	return scans
}

// lab returns the shared Quick-scale lab, building its survey and scans on
// first use so individual benchmarks time only their own analysis.
func lab(b *testing.B) *experiments.Lab {
	labOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.Quick)
		if _, _, err := benchLab.Survey(); err != nil {
			panic(err)
		}
		if _, err := benchLab.Match(); err != nil {
			panic(err)
		}
		if _, err := benchLab.Quantiles(); err != nil {
			panic(err)
		}
		if _, err := benchLab.Scans(benchLab.Scale.ZmapScans); err != nil {
			panic(err)
		}
	})
	return benchLab
}

// --- one benchmark per paper table/figure ---

// benchFreshMatch matches the lab's survey again with the timer stopped:
// a Result builds its quantiles once, so a benchmark of that work needs a
// fresh Result per iteration.
func benchFreshMatch(b *testing.B, l *experiments.Lab) *core.Result {
	b.StopTimer()
	defer b.StartTimer()
	return core.Match(benchSurvey(b, l), core.MatchOptionsForCycles(l.Scale.SurveyCycles))
}

func BenchmarkFig1SurveyDetectedCDF(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := benchFreshMatch(b, l)
		core.PercentileCDF(m.SurveyDetectedQuantiles(), 200)
	}
}

// BenchmarkFig2BroadcastLastOctets times Figure 2's report: the scan
// report already holds the broadcast findings, so what remains is the
// octet tally and its rendering.
func BenchmarkFig2BroadcastLastOctets(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3UnmatchedLastOctets(b *testing.B) {
	recs := benchSurvey(b, lab(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.UnmatchedLastOctets(recs)
	}
}

func BenchmarkFig4FalseMatchScenario(b *testing.B) {
	l := lab(b)
	l.Fig4()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Fig4()
	}
}

func BenchmarkFig5DuplicateCCDF(b *testing.B) {
	m := benchMatch(b, lab(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DuplicateCCDF()
	}
}

func BenchmarkTable1MatchingPipeline(b *testing.B) {
	l := lab(b)
	recs := benchSurvey(b, l)
	opt := core.MatchOptionsForCycles(l.Scale.SurveyCycles)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Match(recs, opt)
		res.BuildTable1()
	}
}

func BenchmarkFig6FilteringEffect(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := benchFreshMatch(b, l)
		m.AddressQuantiles(false)
		m.AddressQuantiles(true)
	}
}

func BenchmarkTable2TimeoutMatrix(b *testing.B) {
	q := benchQuantiles(b, lab(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.TimeoutMatrix(q)
		if m.At(95, 95) <= 0 {
			b.Fatal("degenerate matrix")
		}
	}
}

func BenchmarkTable3ZmapScans(b *testing.B) {
	// Workload benchmark: one full stateless scan of a 96-block population
	// per iteration.
	for i := 0; i < b.N; i++ {
		pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: 96})
		model := netmodel.NewModel(pop)
		src := ipaddr.MustParse("240.0.2.1")
		model.AddVantage(src, ipmeta.NorthAmerica)
		sched := &simnet.Scheduler{}
		net := simnet.NewNetwork(sched, model)
		sc, err := zmapper.Run(net, zmapper.Config{
			Src: src, Continent: ipmeta.NorthAmerica,
			TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
			Duration: 10 * time.Minute, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if sc.ProbesSent == 0 {
			b.Fatal("no probes")
		}
	}
}

// BenchmarkParallelScan measures the sharded parallel scan engine against
// the same workload as BenchmarkTable3ZmapScans: one full stateless scan of
// a 96-block population per iteration, at benchShards shard counts. The
// population is built once and shared (each shard gets its own Model); the
// merged report is identical across all variants, so the sub-benchmarks
// differ only in execution strategy. Speedup over shards=1 requires a
// multi-core runner.
// benchShards is the fixed shard ladder of the parallel benchmarks. It does
// not follow the host's CPU count, so every machine records the same
// sub-benchmark names and BENCH_*.json files compare across hosts.
var benchShards = []int{1, 2, 4, 8}

func BenchmarkParallelScan(b *testing.B) {
	pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: 96})
	src := ipaddr.MustParse("240.0.2.1")
	cfg := zmapper.Config{
		Src: src, Continent: ipmeta.NorthAmerica,
		TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
		Duration: 10 * time.Minute, Seed: 42,
	}
	fabric := func(int) simnet.Fabric {
		model := netmodel.NewModel(pop)
		model.AddVantage(src, ipmeta.NorthAmerica)
		return model
	}
	for _, shards := range benchShards {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc, err := zmapper.RunSharded(cfg, shards, fabric)
				if err != nil {
					b.Fatal(err)
				}
				if sc.ProbesSent == 0 {
					b.Fatal("no probes")
				}
			}
		})
	}
}

// BenchmarkParallelSurvey is the survey-side counterpart: a 64-block,
// 3-cycle survey through the sharded engine at increasing shard counts.
func BenchmarkParallelSurvey(b *testing.B) {
	pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: 64})
	cfg := survey.Config{Vantage: survey.VantageW, Blocks: pop.Blocks(), Cycles: 3, Seed: 42}
	fabric := func(int) simnet.Fabric {
		model := netmodel.NewModel(pop)
		model.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
		return model
	}
	for _, shards := range benchShards {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var mem survey.MemWriter
				if _, err := survey.RunSharded(cfg, shards, fabric, &mem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig7ZmapRTTCDF(b *testing.B) {
	scans := benchLabScans(b, lab(b), lab(b).Scale.ZmapScans)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scans {
			rtts := sc.RTTPercentiles()
			stats.FracAbove(rtts, time.Second)
			stats.FracAbove(rtts, 75*time.Second)
		}
	}
}

func BenchmarkFig8ScamperConfirm(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Fig8()
	}
}

func BenchmarkFig9SurveyTimeSeries(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		l.Fig9()
	}
}

func BenchmarkFig10ProtocolComparison(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Fig10()
	}
}

func BenchmarkFig11SatelliteScatter(b *testing.B) {
	l := lab(b)
	q := benchQuantiles(b, l)
	db := l.DB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := core.SatelliteScatter(q, db, 300*time.Millisecond)
		core.SummarizeSatellites(pts)
	}
}

// benchScans returns the lab's first three scans' per-/24 turtle tallies,
// the rankings' input.
func benchScans(b *testing.B) ([]core.ScanTallies, *ipmeta.DB) {
	l := lab(b)
	scans := benchLabScans(b, l, 3)
	out := make([]core.ScanTallies, len(scans))
	for i, sc := range scans {
		out[i] = sc.Turtles
	}
	return out, l.DB()
}

func BenchmarkTable4TurtleASes(b *testing.B) {
	scans, db := benchScans(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RankASes(scans, db, core.Turtles, 10)
	}
}

func BenchmarkTable5TurtleContinents(b *testing.B) {
	scans, db := benchScans(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RankContinents(scans, db, core.Turtles)
	}
}

func BenchmarkTable6SleepyTurtleASes(b *testing.B) {
	scans, db := benchScans(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RankASes(scans, db, core.SleepyTurtles, 10)
	}
}

func BenchmarkFig12FirstPingDelta(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		l.Fig12()
	}
}

func BenchmarkFig13WakeupDuration(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		l.Fig13()
	}
}

func BenchmarkFig14PrefixClustering(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		l.Fig14()
	}
}

func BenchmarkTable7HighLatencyPatterns(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		l.Tab7()
	}
}

func BenchmarkRec60TimeoutCoverage(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		l.Rec60()
	}
}

func BenchmarkOutageFalseLossSweep(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		l.Outage()
	}
}

// --- ablation benchmarks (DESIGN.md §6) ---

func BenchmarkAblationBroadcastFilterAlpha(b *testing.B) {
	l := lab(b)
	recs := benchSurvey(b, l)
	base := core.MatchOptionsForCycles(l.Scale.SurveyCycles)
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{0.005, 0.01, 0.05} {
			opt := base
			opt.BroadcastAlpha = alpha
			core.Match(recs, opt)
		}
	}
}

func BenchmarkAblationDuplicateThreshold(b *testing.B) {
	l := lab(b)
	recs := benchSurvey(b, l)
	for i := 0; i < b.N; i++ {
		for _, maxDup := range []int{2, 4, 16} {
			opt := core.MatchOptionsForCycles(l.Scale.SurveyCycles)
			opt.DuplicateMax = maxDup
			core.Match(recs, opt)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkWireEncodeEcho times the probers' encode path, AppendEcho into a
// reused buffer, at 0 allocs/op (DESIGN.md §12; TestWireEncodeZeroAlloc
// pins it), not the allocating EncodeEcho wrapper.
func BenchmarkWireEncodeEcho(b *testing.B) {
	src, dst := ipaddr.MustParse("240.0.0.1"), ipaddr.MustParse("1.2.3.4")
	echo := &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 1, Seq: 2, Payload: make([]byte, 16)}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		*buf = wire.AppendEcho((*buf)[:0], src, dst, echo)
	}
}

// BenchmarkWireDecodeEcho times the decode path, a reused wire.Decoder, at
// 0 allocs/op, not the allocating wire.Decode wrapper.
func BenchmarkWireDecodeEcho(b *testing.B) {
	src, dst := ipaddr.MustParse("240.0.0.1"), ipaddr.MustParse("1.2.3.4")
	pkt := wire.EncodeEcho(src, dst, &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 1, Seq: 2})
	var dec wire.Decoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelRespond times what a scan pays the model per probe: one
// vantage walks a 1024-block population in zmap's permuted order at
// increasing times (20 ms apart, so one pass spans a 90-minute scan), and
// every probe lands on whatever the population holds there: responsive
// hosts (whose reply buffer is the one allocation), unoccupied addresses,
// subnet broadcasts, hosts inside congestion or outage episodes. The probe
// packets are encoded before the timer starts.
func BenchmarkModelRespond(b *testing.B) {
	pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: 1024})
	model := netmodel.NewModel(pop)
	src := ipaddr.MustParse("240.0.0.1")
	model.AddVantage(src, ipmeta.NorthAmerica)
	n := pop.NumAddrs()
	perm := zmapper.NewPermutation(n, 42)
	echo := &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 1, Seq: 2}
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = wire.EncodeEcho(src, pop.AddrAt(perm.At(i)), echo)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Respond(src, simnet.Time(i)*simnet.Time(20*time.Millisecond), pkts[i%n])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/probe")
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	var s simnet.Scheduler
	// Warm one full batch so the wheel's level arrays and event pool reach
	// steady-state size before the timer starts; otherwise short -benchtime
	// runs (the bench-compare gate) time the one-off growth.
	for i := 0; i < 1024; i++ {
		s.At(simnet.Time(i), func() {})
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(simnet.Time(1024+i), func() {})
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

func BenchmarkSurveyWorkload(b *testing.B) {
	// One 32-block, 2-cycle survey per iteration: the full prober loop
	// including matching, sweeps and record generation.
	for i := 0; i < b.N; i++ {
		pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: 32})
		model := netmodel.NewModel(pop)
		model.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
		sched := &simnet.Scheduler{}
		net := simnet.NewNetwork(sched, model)
		var mem survey.MemWriter
		if _, err := survey.Run(net, survey.Config{
			Vantage: survey.VantageW, Blocks: pop.Blocks(), Cycles: 2, Seed: 42,
		}, &mem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPermutation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := zmapper.NewPermutation(1<<16, uint64(i))
		for {
			if _, ok := p.Next(); !ok {
				break
			}
		}
	}
}

func BenchmarkAblationTimeoutSweep(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		l.AblTimeout()
	}
}

func BenchmarkAblationSampleDepth(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		l.AblScale()
	}
}

func BenchmarkAblationVantageConsistency(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		l.AblVantage()
	}
}

// BenchmarkAnalyze times what cmd/analyze runs over a serialized survey
// dataset: the reader streams records straight into a core.StreamMatcher,
// and the report renders from its result. Nothing proportional to the
// record count is allocated; B/op grows with addresses and recovered
// samples.
func BenchmarkAnalyze(b *testing.B) {
	l := lab(b)
	recs := benchSurvey(b, l)
	var buf bytes.Buffer
	w := survey.NewWriter(&buf, survey.Header{Seed: l.Scale.Seed, Vantage: 'w'})
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	opt := core.MatchOptionsForCycles(l.Scale.SurveyCycles)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, _, err := survey.OpenSource(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		m := core.NewStreamMatcher(opt)
		if err := m.Consume(src); err != nil {
			b.Fatal(err)
		}
		if len(core.RenderReport(m.Finalize(), false)) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTrinocularBeliefMonitor monitors the /24s of the first 300
// always-on responsive hosts. As in the outage experiment, a block's
// ever-responsive set is its hosts among them, at availability 0.9.
func BenchmarkTrinocularBeliefMonitor(b *testing.B) {
	pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: 64})
	var blocks []outage.TrinocularBlock
	for i, n := 0, 0; i < pop.NumAddrs() && n < 300; i++ {
		p := pop.Profile(pop.AddrAt(i))
		if !p.Responsive || p.JoinTime != 0 {
			continue
		}
		n++
		if k := len(blocks) - 1; k >= 0 && blocks[k].Prefix == p.Addr.Prefix() {
			blocks[k].Addrs = append(blocks[k].Addrs, p.Addr)
		} else {
			blocks = append(blocks, outage.TrinocularBlock{Prefix: p.Addr.Prefix(), Addrs: []ipaddr.Addr{p.Addr}, Availability: 0.9})
		}
	}
	src := ipaddr.MustParse("240.0.4.1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := netmodel.NewModel(pop)
		model.AddVantage(src, ipmeta.NorthAmerica)
		sched := &simnet.Scheduler{}
		net := simnet.NewNetwork(sched, model)
		outage.MonitorTrinocular(net, outage.TrinocularConfig{Src: src, Rounds: 3}, blocks)
	}
}
