package zmapper

import (
	"fmt"
	"slices"
	"time"

	"timeouts/internal/faults"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
	"timeouts/internal/transport"
	"timeouts/internal/wire"
	"timeouts/internal/xrand"
)

// Config parameterizes one scan.
type Config struct {
	// Src is the scanner's address; Continent its location.
	Src       ipaddr.Addr
	Continent ipmeta.Continent
	// Targets enumerates the addresses to probe: index i in [0, TargetN)
	// maps to TargetAt(i). Scans visit targets in a seeded pseudorandom
	// permutation.
	TargetN  int
	TargetAt func(int) ipaddr.Addr
	// Duration is the span the probes are spread over; the paper's scans
	// took 10.5 hours. The paper's span scaled down to a small synthetic
	// population would collapse to almost nothing, so zero instead selects
	// a fixed probe rate of one probe per DefaultProbeGap (100 µs), i.e.
	// Duration = TargetN * 100 µs.
	Duration time.Duration
	// Start is the simulation time the scan begins.
	Start simnet.Time
	// Seed drives the permutation and probe IDs; vary it per scan so
	// different scans visit targets in different orders.
	Seed uint64
	// Drain is how long after the last probe the collector keeps running;
	// the paper's modified setup captured responses "indefinitely" with
	// tcpdump, so the default is generous (15 minutes).
	Drain time.Duration
	// Faults optionally injects deterministic wire and process faults
	// (nil: none). Undecodable packets are counted in
	// Scan.CorruptPackets; injected shard-worker panics surface as errors
	// from RunSharded naming the shard.
	Faults *faults.Plan
	// Obs optionally collects the scan's metrics (nil: none): probe and
	// response counters, per-probe RTT histograms (zmap.rtt over every
	// response, zmap.rtt_first_self over the first self-response per
	// address — the sample set the analysis side consumes), and the
	// network/scheduler substrate metrics. Deterministic metrics are
	// partition-invariant: a sharded run merges per-shard registries into
	// Obs and the deterministic snapshot is byte-identical to a sequential
	// run's.
	Obs *obs.Registry
	// Trace optionally records the scan's sim-time phases (probing, drain)
	// — deterministic per seed — plus wall-clock diagnostics.
	Trace *obs.Tracer
	// TargetIndex inverts TargetAt: the dense index of an address, or a
	// negative value for addresses outside the population. Required when
	// Obs is set: the zmap.rtt_first_self histogram tracks which targets
	// have answered in a bitset indexed by it.
	TargetIndex func(ipaddr.Addr) int
}

// Response is one echo response as the stateless scanner sees it.
type Response struct {
	// Dst is the probed destination recovered from the payload.
	Dst ipaddr.Addr
	// Src is the address the response actually came from; it differs from
	// Dst for broadcast responders.
	Src ipaddr.Addr
	// RTT is the round trip computed from the embedded send time.
	RTT time.Duration
}

// Scan is the result of one run.
type Scan struct {
	Cfg       Config
	Responses []Response
	// ProbesSent counts probes; PacketsReceived counts every response
	// packet including duplicate bursts.
	ProbesSent      uint64
	PacketsReceived uint64
	// CorruptPackets counts received packets that failed to decode as an
	// echo reply with Zmap metadata — wire noise the stateless scanner
	// skips past (nonzero only under a fault plan or foreign traffic).
	CorruptPackets uint64
}

// DefaultProbeGap is the probe spacing selected when Config.Duration is
// zero: one probe every 100 µs.
const DefaultProbeGap = 100 * time.Microsecond

// DefaultDrain is the post-scan collection window selected when
// Config.Drain is zero; the paper's modified setup captured responses
// "indefinitely" with tcpdump, so the default is generous.
const DefaultDrain = 15 * time.Minute

// withDefaults validates the config and fills zero fields.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.TargetN <= 0 || cfg.TargetAt == nil {
		return cfg, fmt.Errorf("zmapper: no targets")
	}
	if cfg.Obs != nil && cfg.TargetIndex == nil {
		return cfg, fmt.Errorf("zmapper: metrics need Config.TargetIndex to track first self-responses")
	}
	if cfg.Duration == 0 {
		cfg.Duration = time.Duration(cfg.TargetN) * DefaultProbeGap
	}
	if cfg.Drain == 0 {
		cfg.Drain = DefaultDrain
	}
	return cfg, nil
}

// rangeResult is the output of one shard's probe range.
type rangeResult struct {
	responses []Response
	keys      []simnet.ShardKey // parallel to responses; nil unless tagged
	probes    uint64
	packets   uint64
	corrupt   uint64
}

// rangeRun is the per-range send/receive state: scratch buffers and decoder
// shared by every probe in the range, so the steady-state probe path
// performs no per-event allocations. All probe I/O flows through the
// transport boundary; the scanner never touches the network directly.
type rangeRun struct {
	tr         transport.Transport
	seq        transport.Sequencer
	res        *rangeResult
	src        ipaddr.Addr
	seed       uint64
	tag        bool
	collecting bool

	dec     wire.Decoder
	echo    wire.ICMPEcho
	payload []byte  // ZmapPayload scratch, reused across probes
	buf     *[]byte // pooled probe packet buffer

	obsProbes    *obs.Counter
	obsResponses *obs.Counter
	obsCorrupt   *obs.Counter
	obsRTT       *obs.Histogram
	obsRTTSelf   *obs.Histogram
	// First self-response tracking for the rtt_first_self histogram (nil
	// without metrics): every address is probed once per scan, so all its
	// deliveries stay within the shard that sent its probe and "first" is
	// shard-local. One bit per target, indexed by TargetIndex.
	seenBits    []uint64
	targetIndex func(ipaddr.Addr) int

	// sink, when set, receives each response as it arrives instead of
	// buffering into res.responses (single-shard streaming; mutually
	// exclusive with tag).
	sink func(Response)
}

// sendProbe emits the probe for dst at permutation position pos.
func (r *rangeRun) sendProbe(now simnet.Time, dst ipaddr.Addr, pos int) {
	r.payload = wire.ZmapPayload{Dst: dst, SendTime: time.Duration(now)}.AppendTo(r.payload[:0])
	r.echo = wire.ICMPEcho{
		Type:    wire.ICMPTypeEchoRequest,
		ID:      uint16(xrand.Hash(r.seed, uint64(dst), 0x1D)),
		Seq:     0,
		Payload: r.payload,
	}
	r.res.probes++
	r.obsProbes.Inc()
	r.seq.SetSendRank(uint64(pos))
	pkt := wire.AppendEcho((*r.buf)[:0], r.src, dst, &r.echo)
	*r.buf = pkt
	r.tr.SendTo(transport.InPacket, pkt)
}

// pumpEvent is the scanner's probe driver: one event for the whole range,
// re-scheduling itself for each successive permutation position, so probe
// state is O(1) however large the range. It always schedules on the
// scheduler's front band, so probes win every equal-time tie against
// deliveries — the order of a scan that pre-inserts one event per probe
// before any delivery exists, which the scan goldens pin (at the default
// 100 µs probe gap roughly one delivery in 10^5 lands exactly on a probe
// instant, so such ties occur in any sizable scan).
type pumpEvent struct {
	r        *rangeRun
	sched    *simnet.Scheduler
	perm     *Permutation
	targetAt func(int) ipaddr.Addr
	dst      ipaddr.Addr // destination for position pos, prefetched
	pos      int
	hi       int
	gap      simnet.Time
	start    simnet.Time
}

// Run fires the probe at the pump's current position and re-arms for the
// next one.
func (e *pumpEvent) Run(now simnet.Time) {
	e.r.sendProbe(now, e.dst, e.pos)
	e.pos++
	if e.pos >= e.hi {
		return
	}
	idx, ok := e.perm.Next()
	if !ok {
		return
	}
	e.dst = e.targetAt(idx)
	e.sched.AtEventFront(e.start+simnet.Time(e.pos)*e.gap, e)
}

// receive handles one delivery.
func (r *rangeRun) receive(at transport.Time, from transport.Addr, data []byte, count int) {
	_ = from // the responder's address rides inside the wire packet
	if !r.collecting {
		return
	}
	res := r.res
	res.packets += uint64(count)
	p, err := r.dec.Decode(data)
	if err != nil {
		// Undecodable wire noise: count it and keep scanning.
		res.corrupt += uint64(count)
		r.obsCorrupt.Add(uint64(count))
		return
	}
	if p.Echo == nil || p.Echo.Type != wire.ICMPTypeEchoReply {
		return
	}
	zp, err := wire.DecodeZmapPayload(p.Echo.Payload)
	if err != nil {
		res.corrupt += uint64(count)
		r.obsCorrupt.Add(uint64(count))
		return
	}
	// Record one response per delivery; duplicate bursts add no RTT
	// information to a stateless scanner.
	rtt := time.Duration(at) - time.Duration(zp.SendTime)
	resp := Response{Dst: zp.Dst, Src: p.IP.Src, RTT: rtt}
	if r.sink != nil {
		r.sink(resp)
	} else {
		res.responses = append(res.responses, resp)
	}
	r.obsResponses.Inc()
	r.obsRTT.Observe(rtt)
	if p.IP.Src == zp.Dst && r.seenBits != nil {
		if i := r.targetIndex(zp.Dst); i >= 0 && i < len(r.seenBits)<<6 &&
			r.seenBits[i>>6]&(1<<(uint(i)&63)) == 0 {
			r.seenBits[i>>6] |= 1 << (uint(i) & 63)
			r.obsRTTSelf.Observe(rtt)
		}
	}
	if r.tag {
		rank, idx := r.seq.LastDeliveryTag()
		res.keys = append(res.keys, simnet.ShardKey{At: at, A: rank, B: uint64(idx)})
	}
}

// runRange drives the probes at permutation positions [lo, hi) on the given
// network, scheduling them at the same absolute times the full sequential
// scan would use, and collects the range's responses. With tag set, each
// response also records the ShardKey — (arrival time, global probe rank,
// delivery index) — under which it merges back into the sequential order.
// The config must already have defaults applied.
func runRange(net *simnet.Network, cfg Config, lo, hi int, tag bool) *rangeResult {
	return runRangeSink(net, cfg, lo, hi, tag, nil)
}

// runRangeSink is runRange with an optional streaming sink: when sink is
// non-nil (single-shard runs only — it is mutually exclusive with tag),
// responses are yielded to it in event-loop order instead of buffered.
func runRangeSink(net *simnet.Network, cfg Config, lo, hi int, tag bool, sink func(Response)) *rangeResult {
	res := &rangeResult{}
	sched := net.Scheduler()
	net.SetFaults(cfg.Faults)
	net.SetObserver(cfg.Obs)
	tr := transport.NewSim(net, cfg.Src)
	rr := &rangeRun{
		tr: tr, seq: tr, res: res, src: cfg.Src, seed: cfg.Seed, tag: tag,
		collecting:   true,
		buf:          wire.GetBuf(),
		obsProbes:    cfg.Obs.Counter("zmap.probes_sent"),
		obsResponses: cfg.Obs.Counter("zmap.responses"),
		obsCorrupt:   cfg.Obs.Counter("zmap.corrupt_packets"),
		obsRTT:       cfg.Obs.Histogram("zmap.rtt"),
		obsRTTSelf:   cfg.Obs.Histogram("zmap.rtt_first_self"),
		sink:         sink,
	}
	defer func() { wire.PutBuf(rr.buf); rr.buf = nil }()
	if cfg.Obs != nil {
		rr.targetIndex = cfg.TargetIndex
		rr.seenBits = make([]uint64, (cfg.TargetN+63)/64)
	}

	tr.SetHandler(rr.receive)
	defer tr.Close()

	perm := NewPermutation(cfg.TargetN, cfg.Seed)
	gap := cfg.Duration / time.Duration(cfg.TargetN)
	// Seek straight to the shard's slice of the permutation instead of
	// walking (and discarding) everything before lo; O(log n) when the
	// population is a power of two.
	perm.Seek(lo)
	if lo < hi {
		if idx, ok := perm.Next(); ok {
			pump := &pumpEvent{r: rr, sched: sched, perm: perm,
				targetAt: cfg.TargetAt, dst: cfg.TargetAt(idx),
				pos: lo, hi: hi, gap: gap, start: cfg.Start}
			sched.AtEventFront(cfg.Start+simnet.Time(lo)*gap, pump)
		}
	}
	stop := cfg.Start + cfg.Duration + cfg.Drain
	sched.At(stop, func() { rr.collecting = false })
	sched.Run()
	return res
}

// Run executes a scan: probes every target once in permuted order, spreads
// probes evenly over the duration, collects responses until Drain after the
// last probe, and drains the scheduler.
func Run(net *simnet.Network, cfg Config) (*Scan, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg.traceSimPhases()
	r := runRange(net, cfg, 0, cfg.TargetN, false)
	return &Scan{Cfg: cfg, Responses: r.responses, ProbesSent: r.probes,
		PacketsReceived: r.packets, CorruptPackets: r.corrupt}, nil
}

// RunSharded executes the same scan as Run partitioned into `shards`
// contiguous slices of the probe permutation, each slice driven by its own
// scheduler and network (built over fabric(shard)) on a bounded worker pool.
// Per-shard response streams are merged by (arrival time, probe rank,
// delivery index), which reconstructs the sequential event-loop order, so
// the result is byte-identical to Run for any shard count — provided
// fabric() returns fabrics that answer a probe identically regardless of
// which shard sends it (true of netmodel.Model instances sharing one
// Population, whose per-address behavior is a pure function of seed,
// address and time).
//
// fabric is called once per shard, possibly concurrently; each call must
// return a fabric not shared with any other shard.
func RunSharded(cfg Config, shards int, fabric func(shard int) simnet.Fabric) (*Scan, error) {
	sc := &Scan{}
	probes, packets, corrupt, err := runShardedInto(cfg, shards, fabric, func(r Response) {
		sc.Responses = append(sc.Responses, r)
	})
	if err != nil {
		return nil, err
	}
	cfg, _ = cfg.withDefaults()
	sc.Cfg, sc.ProbesSent, sc.PacketsReceived, sc.CorruptPackets = cfg, probes, packets, corrupt
	return sc, nil
}

// RunShardedInto is RunSharded with a streaming sink: merged responses are
// yielded to fn in the sequential scan order instead of being materialized
// into a Scan, so an incremental analyzer consumes them straight out of the
// per-shard buffers. It returns the probe and received-packet counters.
func RunShardedInto(cfg Config, shards int, fabric func(shard int) simnet.Fabric, fn func(Response)) (probes, packets uint64, err error) {
	probes, packets, _, err = runShardedInto(cfg, shards, fabric, fn)
	return probes, packets, err
}

func runShardedInto(cfg Config, shards int, fabric func(shard int) simnet.Fabric, fn func(Response)) (probes, packets, corrupt uint64, err error) {
	cfg, err = cfg.withDefaults()
	if err != nil {
		return 0, 0, 0, err
	}
	if shards < 1 {
		shards = 1
	}
	if shards > cfg.TargetN {
		shards = cfg.TargetN
	}
	cfg.traceSimPhases()
	// Each shard collects into its own registry; the commutative merge
	// below reproduces the sequential run's deterministic metrics exactly.
	var shardRegs []*obs.Registry
	if cfg.Obs != nil {
		shardRegs = make([]*obs.Registry, shards)
		for k := range shardRegs {
			shardRegs[k] = obs.NewRegistry()
		}
	}
	// A single shard needs no tagging or merging: its event-loop emission
	// order IS the sequential order, so responses stream straight into fn —
	// O(1) response memory, which is what lets a 2^24-address scan run in
	// a bounded heap.
	tag := shards > 1
	results := make([]*rangeResult, shards)
	if err := simnet.RunShards(shards, 0, func(k int) error {
		cfg.Faults.MaybePanicShard(k)
		sched := &simnet.Scheduler{}
		net := simnet.NewNetwork(sched, fabric(k))
		lo, hi := simnet.ShardBounds(cfg.TargetN, shards, k)
		scfg := cfg
		if shardRegs != nil {
			scfg.Obs = shardRegs[k]
		}
		var sink func(Response)
		if !tag {
			sink = fn
		}
		results[k] = runRangeSink(net, scfg, lo, hi, tag, sink)
		return nil
	}); err != nil {
		return 0, 0, 0, err
	}
	for _, sr := range shardRegs {
		cfg.Obs.Merge(sr)
	}
	if !tag {
		r := results[0]
		return r.probes, r.packets, r.corrupt, nil
	}
	streams := make([][]simnet.Tagged[Response], shards)
	for k, r := range results {
		probes += r.probes
		packets += r.packets
		corrupt += r.corrupt
		tagged := make([]simnet.Tagged[Response], len(r.responses))
		for i, resp := range r.responses {
			tagged[i] = simnet.Tagged[Response]{Key: r.keys[i], Rec: resp}
		}
		streams[k] = tagged
	}
	mergeStart := time.Now()
	simnet.MergeTaggedFunc(streams, fn)
	cfg.Obs.DiagGauge("zmap.merge_wall_ns").Observe(int64(time.Since(mergeStart)))
	return probes, packets, corrupt, nil
}

// traceSimPhases emits the scan's deterministic sim-time phases: probing
// spans [Start, Start+Duration), collection continues through the drain
// window. The config must already have defaults applied.
func (cfg Config) traceSimPhases() {
	if cfg.Trace == nil {
		return
	}
	cfg.Trace.SimSpan("zmap.probe", cfg.Start, cfg.Start+cfg.Duration)
	cfg.Trace.SimSpan("zmap.drain", cfg.Start+cfg.Duration, cfg.Start+cfg.Duration+cfg.Drain)
}

// SelfResponses returns, per probed address that answered from its own
// address, the first-response RTT — the per-address RTT sample the paper's
// Figure 7 CDFs are built from.
func (s *Scan) SelfResponses() map[ipaddr.Addr]time.Duration {
	out := make(map[ipaddr.Addr]time.Duration)
	for _, r := range s.Responses {
		if r.Src != r.Dst {
			continue
		}
		if _, seen := out[r.Src]; !seen {
			out[r.Src] = r.RTT
		}
	}
	return out
}

// BroadcastFindings summarizes broadcast-responder discovery (§3.3.1).
type BroadcastFindings struct {
	// Responders are the source addresses that answered a probe sent to a
	// different address in their /24 — the "broadcast responders" whose
	// survey responses must be filtered.
	Responders map[ipaddr.Addr]int
	// ProbedBroadcast counts, per last octet, the probed destinations that
	// triggered such responses (Figure 2's histogram).
	ProbedBroadcast [256]int
}

// Broadcast extracts broadcast-responder findings from the scan.
func (s *Scan) Broadcast() BroadcastFindings {
	f := BroadcastFindings{Responders: make(map[ipaddr.Addr]int)}
	seenDst := make(map[ipaddr.Addr]bool)
	for _, r := range s.Responses {
		if r.Src == r.Dst || r.Src.Prefix() != r.Dst.Prefix() {
			continue
		}
		f.Responders[r.Src]++
		if !seenDst[r.Dst] {
			seenDst[r.Dst] = true
			f.ProbedBroadcast[r.Dst.LastOctet()]++
		}
	}
	return f
}

// RTTPercentiles returns the scan's per-address RTTs sorted ascending,
// ready for percentile extraction.
func (s *Scan) RTTPercentiles() []time.Duration { return SortedRTTs(s.SelfResponses()) }

// SortedRTTs returns the RTTs of a SelfResponses map sorted ascending, for
// callers that also need the map itself and should build it only once.
func SortedRTTs(self map[ipaddr.Addr]time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(self))
	for _, rtt := range self {
		out = append(out, rtt)
	}
	slices.Sort(out)
	return out
}
