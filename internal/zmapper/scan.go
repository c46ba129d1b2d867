package zmapper

import (
	"fmt"
	"slices"
	"time"

	"timeouts/internal/core"
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
	// address — the sample set the scan report keeps), and the
	// network/scheduler substrate metrics. Deterministic metrics are
	// partition-invariant: a sharded run merges per-shard registries into
	// Obs and the deterministic snapshot is byte-identical to a sequential
	// run's.
	Obs *obs.Registry
	// Trace optionally records the scan's sim-time phases (probing, drain)
	// — deterministic per seed — plus wall-clock diagnostics.
	Trace *obs.Tracer
}

// Response is one echo response as the stateless scanner sees it: an
// element of RunShardedInto's raw stream.
type Response struct {
	// Dst is the probed destination recovered from the payload.
	Dst ipaddr.Addr
	// Src is the address the response actually came from; it differs from
	// Dst for broadcast responders.
	Src ipaddr.Addr
	// RTT is the round trip computed from the embedded send time.
	RTT time.Duration
}

// Counters are a scan's packet counts.
type Counters struct {
	// ProbesSent counts probes; PacketsReceived counts every response
	// packet including duplicate bursts.
	ProbesSent      uint64
	PacketsReceived uint64
	// CorruptPackets counts received packets that failed to decode as an
	// echo reply with Zmap metadata — wire noise the stateless scanner
	// skips past (nonzero only under a fault plan or foreign traffic).
	CorruptPackets uint64
}

func (c *Counters) add(o Counters) {
	c.ProbesSent += o.ProbesSent
	c.PacketsReceived += o.PacketsReceived
	c.CorruptPackets += o.CorruptPackets
}

// Scan is one scan's report: what the paper's Zmap analyses (Figures 2
// and 7, Tables 3-6) read of it. Run and RunSharded build it while the
// responses arrive and keep none of them.
type Scan struct {
	Cfg Config
	Counters
	// Turtles tallies, per /24, the addresses whose own first response
	// arrived and those among them above the paper's 1 s and 100 s
	// thresholds: the input of core.RankASes and core.RankContinents.
	Turtles core.ScanTallies
	// Broadcast holds the broadcast-responder findings (§3.3.1).
	Broadcast BroadcastFindings

	// Each responder's first self-response RTT. While the scan runs they
	// collect in fixed-size chunks, which never copy as they grow; finish
	// joins and sorts them.
	chunks   [][]time.Duration
	rtts     []time.Duration
	bcastDst map[ipaddr.Addr]bool // destinations already counted in Broadcast.ProbedBroadcast
}

// rttChunk is the RTT count of one chunk. A slice grown by append leaves
// each outgrown array behind, several times the final size in all, and
// none of it fits the next, larger array; chunks leave nothing behind.
const rttChunk = 4096

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

func newScan() *Scan {
	return &Scan{
		Turtles:   core.ScanTallies{},
		Broadcast: BroadcastFindings{Responders: map[ipaddr.Addr]int{}},
		bcastDst:  map[ipaddr.Addr]bool{},
	}
}

// observe adds one response to the report; first marks the first
// self-response from its destination.
func (s *Scan) observe(_ simnet.ShardKey, r Response, first bool) {
	switch {
	case first:
		if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == rttChunk {
			s.chunks = append(s.chunks, make([]time.Duration, 0, rttChunk))
		}
		last := &s.chunks[len(s.chunks)-1]
		*last = append(*last, r.RTT)
		s.Turtles.Add(r.Dst, r.RTT)
	case r.Src != r.Dst && r.Src.Prefix() == r.Dst.Prefix():
		s.Broadcast.Responders[r.Src]++
		if !s.bcastDst[r.Dst] {
			s.bcastDst[r.Dst] = true
			s.Broadcast.ProbedBroadcast[r.Dst.LastOctet()]++
		}
	}
}

// merge folds another shard's report into s. Shards probe disjoint
// destinations, so each per-destination decision (first self-response,
// first broadcast trigger) was already exact within its shard, and the
// reports combine by addition.
func (s *Scan) merge(o *Scan) {
	s.chunks = append(s.chunks, o.chunks...)
	s.Turtles.Merge(o.Turtles)
	for a, n := range o.Broadcast.Responders {
		s.Broadcast.Responders[a] += n
	}
	for i, n := range o.Broadcast.ProbedBroadcast {
		s.Broadcast.ProbedBroadcast[i] += n
	}
}

// finish completes the report once every response is in.
func (s *Scan) finish(cfg Config, counts Counters) {
	s.Cfg, s.Counters = cfg, counts
	s.rtts = slices.Concat(s.chunks...)
	slices.Sort(s.rtts)
	s.chunks, s.bcastDst = nil, nil
}

// RTTPercentiles returns each responder's first self-response RTT — the
// per-address sample the paper's Figure 7 CDFs are built from — sorted
// ascending, ready for percentile extraction. Its length is the scan's
// responder count. The slice belongs to the report; do not modify it.
func (s *Scan) RTTPercentiles() []time.Duration { return s.rtts }

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
	if cfg.Duration == 0 {
		cfg.Duration = time.Duration(cfg.TargetN) * DefaultProbeGap
	}
	if cfg.Drain == 0 {
		cfg.Drain = DefaultDrain
	}
	return cfg, nil
}

// deliverFunc receives each decoded response of a probe range, in
// event-loop order: its merge key — (arrival time, probe rank, delivery
// index) — the response, and whether it is the first self-response from
// its destination.
type deliverFunc func(key simnet.ShardKey, r Response, first bool)

// rangeRun is the per-range send/receive state: scratch buffers and decoder
// shared by every probe in the range, so the steady-state probe path
// performs no per-event allocations. All probe I/O flows through the
// transport boundary; the scanner never touches the network directly.
type rangeRun struct {
	tr         *transport.SimTransport
	counts     Counters
	src        ipaddr.Addr
	seed       uint64
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
	// seen decides "first" for the report and the rtt_first_self
	// histogram: one bit per probe of the range, indexed by send rank
	// minus lo. Every address is probed once, and each delivery carries
	// the rank of the probe that caused it, so an address's
	// self-responses all land on its probe's bit, in the shard that sent
	// it.
	seen []uint64
	lo   uint64

	deliver deliverFunc
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
	r.counts.ProbesSent++
	r.obsProbes.Inc()
	r.tr.SetSendRank(uint64(pos))
	pkt := wire.AppendEcho((*r.buf)[:0], r.src, dst, &r.echo)
	*r.buf = pkt
	r.tr.Send(pkt)
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
func (r *rangeRun) receive(at simnet.Time, data []byte, count int) {
	if !r.collecting {
		return
	}
	r.counts.PacketsReceived += uint64(count)
	p, err := r.dec.Decode(data)
	if err != nil {
		// Undecodable wire noise: count it and keep scanning.
		r.counts.CorruptPackets += uint64(count)
		r.obsCorrupt.Add(uint64(count))
		return
	}
	if p.Echo == nil || p.Echo.Type != wire.ICMPTypeEchoReply {
		return
	}
	zp, err := wire.DecodeZmapPayload(p.Echo.Payload)
	if err != nil {
		r.counts.CorruptPackets += uint64(count)
		r.obsCorrupt.Add(uint64(count))
		return
	}
	// One response per delivery; duplicate bursts add no RTT information
	// to a stateless scanner.
	rtt := time.Duration(at) - time.Duration(zp.SendTime)
	r.obsResponses.Inc()
	r.obsRTT.Observe(rtt)
	rank, idx := r.tr.LastDeliveryTag()
	first := p.IP.Src == zp.Dst && r.markFirst(rank)
	if first {
		r.obsRTTSelf.Observe(rtt)
	}
	r.deliver(simnet.ShardKey{At: at, A: rank, B: uint64(idx)},
		Response{Dst: zp.Dst, Src: p.IP.Src, RTT: rtt}, first)
}

// markFirst sets the bit of the probe with the given send rank and reports
// whether it was clear.
func (r *rangeRun) markFirst(rank uint64) bool {
	i := rank - r.lo
	w, bit := i>>6, uint64(1)<<(i&63)
	if r.seen[w]&bit != 0 {
		return false
	}
	r.seen[w] |= bit
	return true
}

// runRange drives the probes at permutation positions [lo, hi) on the given
// network, scheduling them at the same absolute times the full sequential
// scan would use, and hands every response to deliver as it arrives. The
// config must already have defaults applied.
func runRange(net *simnet.Network, cfg Config, lo, hi int, deliver deliverFunc) Counters {
	sched := net.Scheduler()
	net.SetFaults(cfg.Faults)
	net.SetObserver(cfg.Obs)
	rr := &rangeRun{
		src: cfg.Src, seed: cfg.Seed,
		collecting:   true,
		buf:          wire.GetBuf(),
		obsProbes:    cfg.Obs.Counter("zmap.probes_sent"),
		obsResponses: cfg.Obs.Counter("zmap.responses"),
		obsCorrupt:   cfg.Obs.Counter("zmap.corrupt_packets"),
		obsRTT:       cfg.Obs.Histogram("zmap.rtt"),
		obsRTTSelf:   cfg.Obs.Histogram("zmap.rtt_first_self"),
		seen:         make([]uint64, (hi-lo+63)/64),
		lo:           uint64(lo),
		deliver:      deliver,
	}
	defer func() { wire.PutBuf(rr.buf); rr.buf = nil }()

	rr.tr = transport.NewSim(net, cfg.Src, rr.receive)
	defer rr.tr.Close()

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
	return rr.counts
}

// Run executes a scan on the given network and returns its report: probes
// every target once in permuted order, spreads probes evenly over the
// duration, collects responses until Drain after the last probe, and
// drains the scheduler.
func Run(net *simnet.Network, cfg Config) (*Scan, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg.traceSimPhases()
	sc := newScan()
	sc.finish(cfg, runRange(net, cfg, 0, cfg.TargetN, sc.observe))
	return sc, nil
}

// RunSharded executes the same scan as Run partitioned into `shards`
// contiguous slices of the probe permutation, each slice driven by its own
// scheduler and network (built over fabric(shard)) on a bounded worker pool.
// Each shard builds a report of its slice's responses; shards probe
// disjoint destinations, so the reports merge by addition into exactly
// Run's report, for any shard count — provided fabric() returns fabrics
// that answer a probe identically regardless of which shard sends it (true
// of netmodel.Model instances sharing one Population, whose per-address
// behavior is a pure function of seed, address and time).
//
// fabric is called once per shard, possibly concurrently; each call must
// return a fabric not shared with any other shard.
func RunSharded(cfg Config, shards int, fabric func(shard int) simnet.Fabric) (*Scan, error) {
	cfg, shards, err := cfg.sharded(shards)
	if err != nil {
		return nil, err
	}
	parts := make([]*Scan, shards)
	sinks := make([]deliverFunc, shards)
	for k := range parts {
		parts[k] = newScan()
		sinks[k] = parts[k].observe
	}
	counts, err := runShards(cfg, fabric, sinks)
	if err != nil {
		return nil, err
	}
	sc := parts[0]
	for _, p := range parts[1:] {
		sc.merge(p)
	}
	sc.finish(cfg, counts)
	return sc, nil
}

// RunShardedInto runs the same scan as RunSharded but yields its raw
// response stream to fn instead of building a report: every response, in
// the sequential scan's order, whatever the shard count. Per-shard streams
// are merged by (arrival time, probe rank, delivery index), which
// reconstructs the sequential event-loop order; a single shard streams
// straight into fn, in O(1) response memory. It returns the scan's
// counters.
func RunShardedInto(cfg Config, shards int, fabric func(shard int) simnet.Fabric, fn func(Response)) (Counters, error) {
	cfg, shards, err := cfg.sharded(shards)
	if err != nil {
		return Counters{}, err
	}
	if shards == 1 {
		return runShards(cfg, fabric, []deliverFunc{func(_ simnet.ShardKey, r Response, _ bool) { fn(r) }})
	}
	streams := make([][]simnet.Tagged[Response], shards)
	sinks := make([]deliverFunc, shards)
	for k := range sinks {
		sinks[k] = func(key simnet.ShardKey, r Response, _ bool) {
			streams[k] = append(streams[k], simnet.Tagged[Response]{Key: key, Rec: r})
		}
	}
	counts, err := runShards(cfg, fabric, sinks)
	if err != nil {
		return Counters{}, err
	}
	mergeStart := time.Now()
	simnet.MergeTaggedFunc(streams, fn)
	cfg.Obs.DiagGauge("zmap.merge_wall_ns").Observe(int64(time.Since(mergeStart)))
	return counts, nil
}

// sharded applies the config's defaults and clamps the shard count to
// [1, TargetN].
func (cfg Config) sharded(shards int) (Config, int, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return cfg, 0, err
	}
	return cfg, max(1, min(shards, cfg.TargetN)), nil
}

// runShards runs shard k's slice of the permutation on its own scheduler
// and network, handing its responses to sinks[k], and returns the summed
// counters. The config must already have defaults applied.
func runShards(cfg Config, fabric func(shard int) simnet.Fabric, sinks []deliverFunc) (Counters, error) {
	shards := len(sinks)
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
	counts := make([]Counters, shards)
	if err := simnet.RunShards(shards, 0, func(k int) error {
		cfg.Faults.MaybePanicShard(k)
		net := simnet.NewNetwork(&simnet.Scheduler{}, fabric(k))
		lo, hi := simnet.ShardBounds(cfg.TargetN, shards, k)
		scfg := cfg
		if shardRegs != nil {
			scfg.Obs = shardRegs[k]
		}
		counts[k] = runRange(net, scfg, lo, hi, sinks[k])
		return nil
	}); err != nil {
		return Counters{}, err
	}
	for _, sr := range shardRegs {
		cfg.Obs.Merge(sr)
	}
	var total Counters
	for _, c := range counts {
		total.add(c)
	}
	return total, nil
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
