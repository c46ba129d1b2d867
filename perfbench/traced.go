package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"timeouts/internal/advisor"
	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
	"timeouts/internal/survey"
	"timeouts/internal/wire"
	"timeouts/internal/zmapper"
)

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json's
// order. A workload prints 0 for the layers it bypasses.
var perLayer = []struct{ name, unit string }{
	{"netmodel.respond_ns", "ns"},
	{"netmodel.deliveries_per_probe", "count"},
	{"simnet.event_ns", "ns"},
	{"wire.codec_ns", "ns"},
	{"zmapper.self_ns", "ns"},
	{"zmapper.allocs_per_probe", "count"},
	{"zmapper.bytes_per_probe", "B"},
	{"survey.self_ns", "ns"},
	{"survey.allocs_per_probe", "count"},
	{"survey.bytes_per_probe", "B"},
	{"survey.writer_ns", "ns"},
	{"survey.reader_ns", "ns"},
	{"survey.records_per_probe", "count"},
	{"survey.matched_per_probe", "count"},
	{"core.match_ns", "ns"},
	{"core.match_allocs_per_record", "count"},
	{"core.kept_per_response", "share"},
	{"core.quantiles_ns", "ns"},
	{"stats.matrix_ns", "ns"},
	{"core.report_ns", "ns"},
	{"advisor.ingest_ns", "ns"},
	{"advisor.ingest_allocs_per_record", "count"},
	{"advisor.publish_ms", "ms"},
	{"advisor.lookup_ns", "ns"},
	{"advisor.lookup_allocs", "count"},
	{"advisor.handler_ns", "ns"},
	{"advisor.handler_allocs", "count"},
	{"obs.serve_instrument_ns", "ns"},
	{"advisor.prefix_hit_ratio", "share"},
	{"advisord.net_us", "us"},
	{"gc.cpu_frac", "share"},
	{"trace.overhead_frac", "share"},
}

// reconcileTolerance bounds, as a share of a traced operation, the time no
// layer claims (the root span's own self time: the benchmark's glue between
// layer calls) and how far a sampled seam estimate may overrun the span it
// runs in (a negative self time: sampling error).
const reconcileTolerance = 0.02

// layers collects one traced run's per-layer values.
type layers map[string]float64

// traced runs the workload's CLIs once as the untraced reference, then
// its in-process composition (see twin), and prints the per-layer metrics.
func (b *bench) traced() error {
	t := newTracer()
	l := layers{}
	var err error
	switch b.workload {
	case "scan":
		err = b.traceScan(t, l)
	case "survey":
		err = b.traceSurvey(t, l)
	case "advise":
		err = b.traceAdvise(t, l)
	}
	if err != nil {
		return err
	}
	if err := t.write(filepath.Join(b.work, fmt.Sprintf("trace-%s-%d.json", b.workload, b.seed))); err != nil {
		return err
	}
	for _, m := range perLayer {
		b.set(m.name, l[m.name], m.unit)
	}
	return nil
}

// twin runs compose untraced, traced, and untraced again, each after a
// full GC, and prints the tracing overhead: traced CPU minus the mean of
// the untraced runs on either side of it, which cancels a machine whose
// speed drifts during the run.
func (b *bench) twin(t *tracer, l layers, compose func(*tracer) error) error {
	var cpu [3]time.Duration
	for i, tr := range []*tracer{nil, t, nil} {
		runtime.GC()
		debug.FreeOSMemory()
		c0 := processCPU()
		if err := compose(tr); err != nil {
			return err
		}
		cpu[i] = processCPU() - c0
	}
	traced, untraced := cpu[1], (cpu[0]+cpu[2])/2
	over := traced - untraced
	l["trace.overhead_frac"] = over.Seconds() / untraced.Seconds()
	fmt.Printf("tracing overhead (%s): traced %.3f s - untraced %.3f s CPU = %+.3f s (%+.1f%%)\n",
		b.workload, traced.Seconds(), untraced.Seconds(), over.Seconds(), 100*l["trace.overhead_frac"])
	return nil
}

// reconcile prints and checks one traced operation's reconciliation line.
func (b *bench) reconcile(t *tracer, root int) {
	sum, worst := t.reconcile(root)
	total := t.dur(root)
	un, over := t.self(root).Seconds()/total.Seconds(), -worst.Seconds()/total.Seconds()
	fmt.Printf("reconcile %s: layer self times sum to %.1f ms, traced %s %.1f ms; unattributed %.2f%%, smallest layer self %.3f ms (tolerance %.0f%% of the operation each)\n",
		b.workload, ms(sum), t.spans[root].Name, ms(total), 100*un, ms(worst), 100*reconcileTolerance)
	b.check(un <= reconcileTolerance && over <= reconcileTolerance,
		"reconciliation of %s: unattributed %.2f%%, smallest self %.3f ms", b.workload, 100*un, ms(worst))
}

// gcPhase prints the GC share of CPU over one phase.
func gcPhase(name string, g0 gcCPU) {
	fmt.Printf("  gc.cpu_frac[%s] %.4f\n", name, readGCCPU().frac(g0))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perCall is total / n in ns.
func perCall(total time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// zmapscan's defaults.
var (
	scanSrc      = ipaddr.MustParse("240.0.2.1")
	scanDuration = 90 * time.Minute
)

func (b *bench) traceScan(t *tracer, l layers) error {
	ref, err := b.scanCLI()
	if err != nil {
		return err
	}
	var sc *zmapper.Scan
	err = b.twin(t, l, func(t *tracer) error {
		g0 := readGCCPU()
		root := t.begin("scan")
		t.begin("setup")
		pop := netmodel.New(netmodel.Config{Seed: b.seed, Blocks: b.size.scanBlocks})
		model := netmodel.NewModel(pop)
		model.AddVantage(scanSrc, ipmeta.NorthAmerica)
		respond := t.seam("netmodel.Respond")
		net := simnet.NewNetwork(&simnet.Scheduler{}, wrapFabric(model, respond))
		t.end()
		cfg := zmapper.Config{
			Src: scanSrc, Continent: ipmeta.NorthAmerica,
			TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
			Duration: scanDuration, Seed: 1,
		}
		var a0 allocs
		if t != nil {
			a0 = readAllocs()
		}
		run := t.begin("zmapper.Run")
		respond.within(run)
		s, err := zmapper.Run(net, cfg)
		t.end()
		if err != nil {
			return err
		}
		if t == nil {
			return nil
		}
		a := readAllocs().since(a0)
		t.end()
		sc = s
		gcPhase("zmapper.Run", g0)
		l["gc.cpu_frac"] = readGCCPU().frac(g0)
		l["netmodel.respond_ns"] = respond.mean()
		l["netmodel.deliveries_per_probe"] = ratio(respond.Items, respond.Calls)
		l["zmapper.self_ns"] = perCall(t.self(run), s.ProbesSent)
		l["zmapper.allocs_per_probe"] = ratio(a.n, s.ProbesSent)
		l["zmapper.bytes_per_probe"] = ratio(a.bytes, s.ProbesSent)
		b.reconcile(t, root)
		return nil
	})
	if err != nil {
		return err
	}
	responders := uint64(len(sc.RTTPercentiles()))
	b.check(sc.ProbesSent == ref.probes && responders == ref.responses,
		"traced scan: %d probes, %d responders; zmapscan: %d, %d", sc.ProbesSent, responders, ref.probes, ref.responses)
	return b.rungs(t, l, int(sc.ProbesSent))
}

// rungs times the two layers under the prober in isolation: the scheduler
// and the wire codec, per probe.
func (b *bench) rungs(t *tracer, l layers, probes int) error {
	t.begin("rung.simnet")
	l["simnet.event_ns"] = simnetRung(probes, scanDuration/time.Duration(probes))
	t.end()
	t.begin("rung.wire")
	ns, err := wireRung(min(probes, 1<<20))
	t.end()
	l["wire.codec_ns"] = ns
	return err
}

type noopEvent struct{}

func (*noopEvent) Run(simnet.Time) {}

// simnetRung schedules n no-op events with Scheduler.AtEvent at the scan's
// probe spacing, runs them, and returns ns per event.
func simnetRung(n int, gap time.Duration) float64 {
	sched := &simnet.Scheduler{}
	ev := &noopEvent{}
	start := time.Now()
	for i := 0; i < n; i++ {
		sched.AtEvent(simnet.Time(i)*gap, ev)
	}
	sched.Run()
	return perCall(time.Since(start), uint64(n))
}

// wireRung encodes n Zmap echo probes and decodes a reply to each with a
// reused wire.Decoder and DecodeZmapPayload, returning ns per probe.
func wireRung(n int) (float64, error) {
	const k = 1024
	dsts := make([]ipaddr.Addr, k)
	replies := make([][]byte, k)
	for i := range replies {
		dsts[i] = ipaddr.Addr(0x0a000000 + uint32(i)*257)
		req := wire.ICMPEcho{
			Type: wire.ICMPTypeEchoRequest, ID: uint16(i),
			Payload: wire.ZmapPayload{Dst: dsts[i], SendTime: time.Duration(i)}.Encode(),
		}
		replies[i] = wire.EncodeEcho(dsts[i], scanSrc, req.Reply())
	}
	var (
		dec     wire.Decoder
		buf     []byte
		payload []byte
		sink    uint64
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		dst := dsts[i%k]
		payload = wire.ZmapPayload{Dst: dst, SendTime: time.Duration(i)}.AppendTo(payload[:0])
		echo := wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: uint16(i), Payload: payload}
		buf = wire.AppendEcho(buf[:0], scanSrc, dst, &echo)
		p, err := dec.Decode(replies[i%k])
		if err != nil || p.Echo == nil {
			return 0, fmt.Errorf("wire rung: reply does not decode: %v", err)
		}
		z, err := wire.DecodeZmapPayload(p.Echo.Payload)
		if err != nil {
			return 0, fmt.Errorf("wire rung: %w", err)
		}
		sink += uint64(z.Dst) + uint64(len(buf))
	}
	el := time.Since(start)
	if sink == 0 {
		return 0, fmt.Errorf("wire rung: nothing decoded")
	}
	return perCall(el, uint64(n)), nil
}

func (b *bench) traceSurvey(t *tracer, l layers) error {
	cliPath := filepath.Join(b.work, "survey.tosv")
	defer os.Remove(cliPath)
	ref, err := b.surveyCLI(cliPath, 1)
	if err != nil {
		return err
	}
	path := filepath.Join(b.work, "traced-survey.tosv")
	defer os.Remove(path)
	var datasetSHA, report string
	err = b.twin(t, l, func(t *tracer) error {
		g0 := readGCCPU()
		root := t.begin("survey")
		t.begin("setup")
		vp := survey.VantageW // surveyor -vantage w
		pop := netmodel.New(netmodel.Config{Seed: b.seed, Blocks: b.size.surveyBlocks})
		model := netmodel.NewModel(pop)
		model.AddVantage(vp.Addr, vp.Continent)
		respond := t.seam("netmodel.Respond")
		net := simnet.NewNetwork(&simnet.Scheduler{}, wrapFabric(model, respond))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		writes := t.seam("survey.RecordWriter.Write")
		w := wrapWriter(survey.NewWriter(f, survey.Header{Seed: b.seed, Vantage: vp.Name}), writes)
		t.end()
		cfg := survey.Config{
			Vantage: vp, Blocks: pop.Blocks(), Interval: 11 * time.Minute,
			Cycles: b.size.cycles, Timeout: 3 * time.Second, Seed: b.seed,
		}
		var a0 allocs
		if t != nil {
			a0 = readAllocs()
		}
		run := t.begin("survey.Run")
		respond.within(run)
		writes.within(run)
		st, err := survey.Run(net, cfg, w)
		t.end()
		if err != nil {
			return err
		}
		var aRun allocs
		if t != nil {
			aRun = readAllocs().since(a0)
			gcPhase("survey.Run", g0)
		}
		t.begin("close")
		err = f.Close()
		t.end()
		if err != nil {
			return err
		}

		// analyze <dataset> -cycles N, in memory (the CLI default).
		g1 := readGCCPU()
		t.begin("analyze")
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		src, hdr, err := survey.OpenSource(in)
		if err != nil {
			return err
		}
		reads := t.seam("survey.RecordSource.Read")
		drain := t.begin("survey.DrainSource")
		reads.within(drain)
		recs, err := survey.DrainSource(wrapSource(src, reads))
		t.end()
		if err != nil {
			return err
		}
		if t != nil {
			a0 = readAllocs()
		}
		match := t.begin("core.Match")
		res := core.Match(recs, core.MatchOptionsForCycles(b.size.cycles))
		t.end()
		var aMatch allocs
		if t != nil {
			aMatch = readAllocs().since(a0)
		}
		quant := t.begin("core.AddressQuantiles")
		q := res.AddressQuantiles(true)
		t.end()
		matrix := t.begin("core.TimeoutMatrix")
		core.TimeoutMatrix(q)
		t.end()
		render := t.begin("core.RenderReport")
		out := fmt.Sprintf("dataset: %d records, vantage %c, seed %d\n", len(recs), hdr.Vantage, hdr.Seed) +
			core.RenderReport(res, false)
		t.end()
		t.end() // analyze
		t.end() // survey
		if t == nil {
			return nil
		}
		gcPhase("analyze", g1)
		report = out
		if datasetSHA, err = fileSHA256(path); err != nil {
			return err
		}
		l["gc.cpu_frac"] = readGCCPU().frac(g0)
		probes, records := st.Probes, uint64(len(recs))
		l["netmodel.respond_ns"] = respond.mean()
		l["netmodel.deliveries_per_probe"] = ratio(respond.Items, respond.Calls)
		l["survey.self_ns"] = perCall(t.self(run), probes)
		l["survey.allocs_per_probe"] = ratio(aRun.n, probes)
		l["survey.bytes_per_probe"] = ratio(aRun.bytes, probes)
		l["survey.writer_ns"] = writes.mean()
		l["survey.reader_ns"] = reads.mean()
		l["survey.records_per_probe"] = ratio(writes.Calls, probes)
		l["survey.matched_per_probe"] = ratio(st.Matched, probes)
		l["core.match_ns"] = perCall(t.dur(match), records)
		l["core.match_allocs_per_record"] = ratio(aMatch.n, records)
		t1 := res.BuildTable1()
		l["core.kept_per_response"] = ratio(t1.CombinedPackets, t1.NaivePackets)
		l["core.quantiles_ns"] = perCall(t.dur(quant), uint64(len(q)))
		l["stats.matrix_ns"] = float64(t.dur(matrix).Nanoseconds())
		// RenderReport reuses the memoized quantiles and recomputes the
		// matrix; its own share is what remains.
		l["core.report_ns"] = float64((t.dur(render) - t.dur(matrix)).Nanoseconds())
		b.reconcile(t, root)
		return nil
	})
	if err != nil {
		return err
	}
	reportSHA := sha256Hex([]byte(report))
	if b.check(datasetSHA == ref.datasetSHA, "traced dataset %s, surveyor's %s", datasetSHA, ref.datasetSHA) &&
		b.check(reportSHA == ref.reportSHA, "traced report %s, analyze's %s", reportSHA, ref.reportSHA) {
		fmt.Printf("traced dataset %s and report %s equal the CLIs'\n", short(datasetSHA), short(reportSHA))
	}
	return b.rungs(t, l, int(256*b.size.scanBlocks))
}

func (b *bench) traceAdvise(t *tracer, l layers) error {
	dataset, records, err := b.adviseDataset()
	if err != nil {
		return err
	}
	m := newRequestMix(b.seed, b.size.surveyBlocks, b.size.requests)
	ref, err := b.adviseCLI(dataset, records, m)
	if err != nil {
		return err
	}
	p50 := percentileUS(ref.load.latency, 0.5)

	var adv *advisor.Advisor
	var reg *obs.Registry
	var snapshotSHA string
	err = b.twin(t, l, func(t *tracer) error {
		g0 := readGCCPU()
		root := t.begin("advise")
		t.begin("setup")
		f, err := os.Open(dataset)
		if err != nil {
			return err
		}
		defer f.Close()
		src, _, err := survey.OpenSource(f)
		if err != nil {
			return err
		}
		r := obs.NewRegistry() // advisord always serves a registry
		st := advisor.NewStore()
		st.SetObserver(r)
		reads := t.seam("survey.RecordSource.Read")
		t.end()
		var a0 allocs
		if t != nil {
			a0 = readAllocs()
		}
		consume := t.begin("advisor.Store.Consume")
		reads.within(consume)
		err = st.Consume(wrapSource(src, reads))
		t.end()
		if err != nil {
			return err
		}
		var aIngest allocs
		if t != nil {
			aIngest = readAllocs().since(a0)
		}
		a := advisor.New()
		a.SetObserver(r)
		publish := t.begin("advisor.Publish")
		snap := a.Publish(st)
		t.end()
		t.begin("snapshot.WriteJSON")
		var buf bytes.Buffer
		err = snap.WriteJSON(&buf)
		t.end()
		t.end() // advise
		if err != nil || t == nil {
			return err
		}
		adv, reg = a, r
		snapshotSHA = sha256Hex(reEpoch.ReplaceAll(buf.Bytes(), []byte(`  "epoch": 0,`)))
		gcPhase("ingest", g0)
		l["gc.cpu_frac"] = readGCCPU().frac(g0)
		l["survey.reader_ns"] = reads.mean()
		l["advisor.ingest_ns"] = perCall(t.self(consume), st.Records())
		l["advisor.ingest_allocs_per_record"] = ratio(aIngest.n, st.Records())
		l["advisor.publish_ms"] = ms(t.dur(publish))
		b.reconcile(t, root)
		return nil
	})
	if err != nil {
		return err
	}
	if b.check(snapshotSHA == ref.snapshotMasked, "traced snapshot %s, advisord's %s (epoch masked)",
		snapshotSHA, ref.snapshotMasked) {
		fmt.Printf("traced snapshot %s equals advisord's GET /snapshot (epoch masked)\n", short(snapshotSHA))
	}
	return b.serveLayers(t, l, adv, reg, m, p50)
}

// serveLayers times the advisor's read side in process over the request
// mix: Lookup, and the HTTP handler advisord serves, with and without its
// serve instrumentation.
func (b *bench) serveLayers(t *tracer, l layers, adv *advisor.Advisor, reg *obs.Registry, m *requestMix, p50us float64) error {
	const passes = 10
	g0 := readGCCPU()
	prefix := 0
	a0 := readAllocs()
	lookup := t.begin("advisor.Lookup")
	for p := 0; p < passes; p++ {
		for _, addr := range m.addrs {
			ad, err := adv.Lookup(addr, 95, 95)
			if err != nil {
				return fmt.Errorf("lookup %v: %w", addr, err)
			}
			if p == 0 && ad.Source == advisor.SourcePrefix {
				prefix++
			}
		}
	}
	t.end()
	n := uint64(passes * len(m.addrs))
	l["advisor.lookup_ns"] = perCall(t.dur(lookup), n)
	l["advisor.lookup_allocs"] = ratio(readAllocs().since(a0).n, n)
	l["advisor.prefix_hit_ratio"] = ratio(uint64(prefix), uint64(len(m.addrs)))

	reqs := make([]*http.Request, len(m.paths))
	for i, p := range m.paths {
		r, err := http.NewRequest(http.MethodGet, "http://advisord"+p, nil)
		if err != nil {
			return err
		}
		reqs[i] = r
	}
	t.begin("advisor.handler")
	full, fullAllocs, err := timeHandler(advisordHandler(adv, reg, true), reqs, t.overhead)
	t.end()
	if err != nil {
		return err
	}
	t.begin("advisor.handler.uninstrumented")
	bare, _, err := timeHandler(advisordHandler(adv, reg, false), reqs, t.overhead)
	t.end()
	if err != nil {
		return err
	}
	gcPhase("serve", g0)
	l["advisor.handler_ns"] = full
	l["advisor.handler_allocs"] = fullAllocs
	l["obs.serve_instrument_ns"] = full - bare
	l["advisord.net_us"] = p50us - full/1e3
	fmt.Printf("serve: advisord p50 %.1f us over loopback = handler %.1f us + net/http, client and TCP %.1f us\n",
		p50us, full/1e3, l["advisord.net_us"])
	return nil
}

// advisordHandler builds the handler advisord serves with its default
// flags: gate, request timeout, ingest progress, checkpointer (none) and
// /metrics, plus the serve metrics when instrumented.
func advisordHandler(adv *advisor.Advisor, reg *obs.Registry, instrumented bool) http.Handler {
	gate := advisor.NewGate(256, time.Second)
	progress := &advisor.IngestProgress{}
	var ck *advisor.Checkpointer
	opts := []advisor.HandlerOption{
		advisor.WithGate(gate),
		advisor.WithRequestTimeout(5 * time.Second),
		advisor.WithIngestProgress(progress),
		advisor.WithCheckpointer(ck),
	}
	if instrumented {
		sm := advisor.NewServeMetrics(reg)
		wd := advisor.NewWatchdog(sm, reg, 0, 10*time.Second)
		opts = append(opts, advisor.WithServeMetrics(sm),
			advisor.WithMetrics(obs.PromHandler(reg, obs.NewRuntimeCollector(), adv, progress, ck, wd)))
	} else {
		opts = append(opts, advisor.WithMetrics(obs.PromHandler(reg, obs.NewRuntimeCollector(), adv, progress, ck)))
	}
	return advisor.NewHandler(adv, opts...)
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so the handler's allocations are all that is counted.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

// timeHandler serves every request once through h and returns the median
// ns per request (timer cost removed) and the allocations per request.
func timeHandler(h http.Handler, reqs []*http.Request, overhead float64) (float64, float64, error) {
	w := &discardWriter{h: http.Header{}}
	lat := make([]float64, len(reqs))
	a0 := readAllocs()
	for i, r := range reqs {
		clear(w.h)
		w.code = 0
		t0 := time.Now()
		h.ServeHTTP(w, r)
		lat[i] = float64(time.Since(t0))
		if w.code != http.StatusOK {
			return 0, 0, fmt.Errorf("handler answered %s with %d", r.URL, w.code)
		}
	}
	a := readAllocs().since(a0)
	return median(lat) - overhead, ratio(a.n, uint64(len(reqs))), nil
}

func short(sha string) string { return sha[:12] }
