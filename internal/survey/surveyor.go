package survey

import (
	"fmt"
	"math"
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

// Vantage identifies a survey vantage point. The ISI surveys ran from four:
// Marina del Rey, California ("w"); Ft. Collins, Colorado ("c");
// Fujisawa-shi, Japan ("j"); and Athens, Greece ("g") (§5.2).
type Vantage struct {
	Name      byte
	Addr      ipaddr.Addr
	Continent ipmeta.Continent
}

// The four ISI vantage points, at prober addresses in reserved 240/8 space
// (outside any synthetic population).
var (
	VantageW = Vantage{Name: 'w', Addr: ipaddr.MustParse("240.0.0.1"), Continent: ipmeta.NorthAmerica}
	VantageC = Vantage{Name: 'c', Addr: ipaddr.MustParse("240.0.0.2"), Continent: ipmeta.NorthAmerica}
	VantageJ = Vantage{Name: 'j', Addr: ipaddr.MustParse("240.0.0.3"), Continent: ipmeta.Asia}
	VantageG = Vantage{Name: 'g', Addr: ipaddr.MustParse("240.0.0.4"), Continent: ipmeta.Europe}
)

// Vantages lists the vantage points in ISI's rotation order.
var Vantages = []Vantage{VantageW, VantageC, VantageJ, VantageG}

// Config parameterizes one survey run.
type Config struct {
	Vantage Vantage
	// Blocks are the /24s to probe (ISI surveys probe ~24,000; scaled
	// populations use what they have). The list is a set: runs probe a
	// sorted copy, so any order of the same blocks yields the same dataset,
	// and a duplicate block is an error.
	Blocks []ipaddr.Prefix24
	// Interval is the per-address probing period; ISI uses 11 minutes. The
	// 256 addresses of a block are spread evenly across the interval in the
	// interleaved order that puts adjacent last octets half an interval
	// apart (§3.3.1, Figure 4).
	Interval time.Duration
	// Cycles is how many probing rounds to run (ISI: ~2 weeks ≈ 1830).
	Cycles int
	// Timeout is the matcher's timeout; ISI uses 3 s.
	Timeout time.Duration
	// Sweep is the granularity at which the prober expires outstanding
	// probes. Because expiry only happens at sweeps, responses arriving in
	// (Timeout, Timeout+Sweep] are still matched — reproducing the paper's
	// observation that "a few responses were matched even after 7 seconds"
	// despite the 3 s timeout (Figure 1).
	Sweep time.Duration
	// Start is the simulation time at which probing begins.
	Start simnet.Time
	// ResponseDropRate drops incoming responses at the vantage, modelling
	// the broken "j"/"g" surveys of Figure 9 whose response rates fell to
	// 0.02–0.2%.
	ResponseDropRate float64
	// Seed drives prober-local randomness (drop decisions, probe IDs).
	Seed uint64
	// Faults optionally injects deterministic wire and process faults
	// (nil: none). Wire faults corrupt, truncate, or duplicate deliveries
	// in flight — the prober counts undecodable packets in
	// Stats.CorruptPackets and continues. Process faults panic injected
	// shard workers; RunSharded surfaces them as errors naming the shard.
	Faults *faults.Plan
	// Obs optionally collects the survey's metrics (nil: none): the Stats
	// fields as live counters, a survey.rtt_matched histogram over matched
	// RTTs — the probe-side samples the analysis pipeline recovers, so the
	// two can be cross-checked — and the network/scheduler substrate
	// metrics. Deterministic metrics are partition-invariant under
	// sharding (per-shard registries merge commutatively into Obs).
	Obs *obs.Registry
	// Trace optionally records the survey's sim-time phases (probing,
	// drain) — deterministic per seed.
	Trace *obs.Tracer
}

// prepare fills defaults, replaces Blocks with a sorted copy, and rejects
// configurations a survey cannot run: no blocks, a duplicate block, or a
// timing the outstanding-probe ring cannot cover (see ringSize).
func (c Config) prepare() (Config, error) {
	c = c.withDefaults()
	if len(c.Blocks) == 0 {
		return c, fmt.Errorf("survey: no blocks to probe")
	}
	c.Blocks = slices.Clone(c.Blocks)
	slices.Sort(c.Blocks)
	for i := 1; i < len(c.Blocks); i++ {
		if c.Blocks[i] == c.Blocks[i-1] {
			return c, fmt.Errorf("survey: duplicate block %v in Config.Blocks", c.Blocks[i])
		}
	}
	if _, err := ringSize(c); err != nil {
		return c, err
	}
	return c, nil
}

// withDefaults fills zero fields with ISI-like values.
func (c Config) withDefaults() Config {
	if c.Vantage.Addr == 0 {
		c.Vantage = VantageW
	}
	if c.Interval == 0 {
		c.Interval = 11 * time.Minute
	}
	if c.Cycles == 0 {
		c.Cycles = 4
	}
	if c.Timeout == 0 {
		c.Timeout = 3 * time.Second
	}
	if c.Sweep == 0 {
		c.Sweep = 4 * time.Second
	}
	return c
}

// Stats summarizes a survey run.
type Stats struct {
	Probes    uint64
	Matched   uint64
	Timeouts  uint64
	Unmatched uint64 // response packets recorded as unmatched (incl. batch counts)
	Errors    uint64
	Dropped   uint64 // responses dropped at the vantage
	// CorruptPackets counts delivered packets that failed to decode —
	// noise on a real wire, injected corruption under a fault plan. The
	// survey counts them and continues.
	CorruptPackets uint64
}

// ResponseRate returns matched responses as a fraction of probes, the
// "percentage of successful pings" of Figure 9's lower panel.
func (s Stats) ResponseRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Matched) / float64(s.Probes)
}

// SlotOfOctet returns the probing slot (0..255) of a last octet within the
// interval: even octets first, then odd, so that octets x and x+1 are
// probed half an interval apart (330 s at ISI's 11 minutes) — the property
// the paper's broadcast filter exploits.
func SlotOfOctet(o byte) int {
	return int(o&1)*128 + int(o>>1)
}

// Record-stream merge phases. The sequential event loop breaks same-time
// ties by insertion order; the surveyor inserts all slot events, then all
// sweep events, and deliveries are created later as probes fire — so at any
// instant, slot records precede sweep records precede delivery records.
// ShardKeys rank those classes explicitly, which lets a sharded run
// reconstruct the exact sequential record order (see simnet.ShardKey).
const (
	phaseSlot    = iota // force-expiry inside a send slot: (slot rank, global block)
	phaseSweep          // scheduled sweep expiry: (send time, addr)
	phaseDeliver        // received delivery: (probe rank, delivery index, record index)
	phaseFinal          // post-run expiry sweep: (send time, addr)
	phaseRest           // post-run residue younger than the timeout: (addr)
)

// endKeyTime orders post-run records after every scheduled event.
const endKeyTime = simnet.Time(math.MaxInt64)

// surveyObs bundles the survey's hoisted metric handles; the zero value
// (all nil) is a no-op, so uninstrumented runs pay only nil checks.
type surveyObs struct {
	probes, matched, timeouts  *obs.Counter
	unmatched, errors, dropped *obs.Counter
	corrupt                    *obs.Counter
	rtt                        *obs.Histogram
}

// newSurveyObs resolves the survey's metrics on reg (nil-safe).
func newSurveyObs(reg *obs.Registry) surveyObs {
	return surveyObs{
		probes:    reg.Counter("survey.probes"),
		matched:   reg.Counter("survey.matched"),
		timeouts:  reg.Counter("survey.timeouts"),
		unmatched: reg.Counter("survey.unmatched"),
		errors:    reg.Counter("survey.errors"),
		dropped:   reg.Counter("survey.dropped"),
		corrupt:   reg.Counter("survey.corrupt_packets"),
		rtt:       reg.Histogram("survey.rtt_matched"),
	}
}

// traceSimPhases emits the survey's deterministic sim-time phases: probing
// spans the configured cycles; the trailing sweeps that resolve the last
// probes are the drain. The config must already have defaults applied.
func (c Config) traceSimPhases() {
	if c.Trace == nil {
		return
	}
	end := c.Start + simnet.Time(c.Cycles)*c.Interval
	c.Trace.SimSpan("survey.probe", c.Start, end)
	c.Trace.SimSpan("survey.drain", end, end+c.Timeout+2*c.Sweep)
}

// Run executes a survey: it attaches a prober to the network, probes every
// address of every block once per cycle, writes the dataset to out, drains
// the scheduler, and detaches. The scheduler is run to completion.
func Run(net *simnet.Network, cfg Config, out RecordWriter) (Stats, error) {
	cfg, err := cfg.prepare()
	if err != nil {
		return Stats{}, err
	}
	cfg.traceSimPhases()
	tr := transport.NewSim(net, cfg.Vantage.Addr)
	s := &surveyor{
		tr: tr, seq: tr, sched: net.Scheduler(), cfg: cfg, out: out,
		ring:       newOutRing(cfg, len(cfg.Blocks)),
		blockTotal: len(cfg.Blocks),
		o:          newSurveyObs(cfg.Obs),
	}
	net.SetFaults(cfg.Faults)
	net.SetObserver(cfg.Obs)
	tr.SetHandler(s.receive)
	defer tr.Close()

	s.scheduleAll()
	defer s.close()
	net.Scheduler().Run()
	s.expireAll()
	if f, ok := out.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil {
			return s.stats, err
		}
	}
	if s.err != nil {
		return s.stats, s.err
	}
	return s.stats, nil
}

// RunSharded executes the same survey as Run partitioned into `shards`
// contiguous slices of the block list, each slice probed by its own
// scheduler and network (built over fabric(shard)) on a bounded worker
// pool. Every per-address interaction — probing, matching, timing out,
// broadcast fan-in — stays within the shard that owns the address's /24, so
// each shard reproduces its slice of the sequential run exactly; the
// per-shard record streams are then merged by (timestamp, sequence) keys
// and written to out in an order byte-identical to the sequential run.
//
// fabric is called once per shard, possibly concurrently; each call must
// return a fabric not shared with any other shard, answering probes
// identically regardless of shard (netmodel.Model instances over one shared
// Population qualify).
func RunSharded(cfg Config, shards int, fabric func(shard int) simnet.Fabric, out RecordWriter) (Stats, error) {
	cfg, err := cfg.prepare()
	if err != nil {
		return Stats{}, err
	}
	if shards < 1 {
		shards = 1
	}
	if shards > len(cfg.Blocks) {
		shards = len(cfg.Blocks)
	}
	cfg.traceSimPhases()
	// Per-shard registries, merged commutatively after the run, reproduce
	// the sequential run's deterministic metrics exactly.
	var shardRegs []*obs.Registry
	if cfg.Obs != nil {
		shardRegs = make([]*obs.Registry, shards)
		for k := range shardRegs {
			shardRegs[k] = obs.NewRegistry()
		}
	}
	surveyors := make([]*surveyor, shards)
	if err := simnet.RunShards(shards, 0, func(k int) error {
		cfg.Faults.MaybePanicShard(k)
		sched := &simnet.Scheduler{}
		net := simnet.NewNetwork(sched, fabric(k))
		net.SetFaults(cfg.Faults)
		lo, hi := simnet.ShardBounds(len(cfg.Blocks), shards, k)
		scfg := cfg
		scfg.Blocks = cfg.Blocks[lo:hi]
		if shardRegs != nil {
			scfg.Obs = shardRegs[k]
		}
		net.SetObserver(scfg.Obs)
		tr := transport.NewSim(net, cfg.Vantage.Addr)
		s := &surveyor{
			tr: tr, seq: tr, sched: sched, cfg: scfg, tag: true,
			ring:     newOutRing(scfg, len(scfg.Blocks)),
			blockOff: lo, blockTotal: len(cfg.Blocks),
			o: newSurveyObs(scfg.Obs),
		}
		surveyors[k] = s
		tr.SetHandler(s.receive)
		defer tr.Close()
		s.scheduleAll()
		sched.Run()
		s.expireAll()
		s.close()
		return nil
	}); err != nil {
		return Stats{}, err
	}
	for _, sr := range shardRegs {
		cfg.Obs.Merge(sr)
	}

	var stats Stats
	streams := make([][]simnet.Tagged[Record], shards)
	for k, s := range surveyors {
		stats.Probes += s.stats.Probes
		stats.Matched += s.stats.Matched
		stats.Timeouts += s.stats.Timeouts
		stats.Unmatched += s.stats.Unmatched
		stats.Errors += s.stats.Errors
		stats.Dropped += s.stats.Dropped
		stats.CorruptPackets += s.stats.CorruptPackets
		streams[k] = s.tagged
	}
	// The merge is streamed record-by-record into the writer: no merged
	// intermediate slice exists, so a bounded-memory sink (a dataset writer,
	// or core.StreamMatcher consuming the survey directly) sees the records
	// flow straight out of the per-shard buffers in sequential order.
	mergeStart := time.Now()
	simnet.MergeTaggedFunc(streams, func(r Record) {
		if werr := out.Write(r); werr != nil && err == nil {
			err = werr
		}
	})
	cfg.Obs.DiagGauge("survey.merge_wall_ns").Observe(int64(time.Since(mergeStart)))
	if f, ok := out.(interface{ Flush() error }); ok {
		if ferr := f.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return stats, err
}

// surveyor holds the run state of one survey (or one shard of one). Probe
// I/O goes through the transport boundary — the surveyor never touches the
// network directly — while the probing schedule itself lives on the sim
// scheduler, which is what makes the run deterministic.
type surveyor struct {
	tr    transport.Transport
	seq   transport.Sequencer
	sched *simnet.Scheduler
	cfg   Config
	out   RecordWriter
	ring  *outRing // outstanding probes, one slot column per send (dense.go)
	stats Stats
	o     surveyObs
	err   error

	// Sharded-run state: blockOff is the global index of cfg.Blocks[0] in
	// the full block list of blockTotal entries; with tag set, records are
	// buffered with merge keys instead of being written to out.
	blockOff   int
	blockTotal int
	tag        bool
	tagged     []simnet.Tagged[Record]

	// Hot-path scratch: preallocated slot events, one shared sweep event,
	// a reusable decoder and echo message, and a pooled probe buffer.
	slotEvents []slotEvent
	sweepEv    sweepEvent
	dec        wire.Decoder
	echo       wire.ICMPEcho
	buf        *[]byte
}

// slotEvent fires one probing slot of one cycle; the events are preallocated
// in scheduleAll, replacing a closure per (cycle, slot).
type slotEvent struct {
	s           *surveyor
	cycle, slot int
}

func (e *slotEvent) Run(simnet.Time) { e.s.sendSlot(e.cycle, e.slot) }

// sweepEvent fires a timeout sweep; one instance serves every sweep time.
type sweepEvent struct{ s *surveyor }

func (e *sweepEvent) Run(simnet.Time) { e.s.sweep() }

// close releases the surveyor's pooled buffer after the run.
func (s *surveyor) close() {
	if s.buf != nil {
		wire.PutBuf(s.buf)
		s.buf = nil
	}
}

// scheduleAll installs the survey's slot and sweep events on the scheduler.
func (s *surveyor) scheduleAll() {
	sched := s.sched
	cfg := s.cfg
	s.buf = wire.GetBuf()
	s.sweepEv = sweepEvent{s: s}
	slotDur := cfg.Interval / 256
	// Exact capacity keeps element addresses stable across appends.
	s.slotEvents = make([]slotEvent, 0, cfg.Cycles*256)
	for cyc := 0; cyc < cfg.Cycles; cyc++ {
		base := cfg.Start + simnet.Time(cyc)*cfg.Interval
		for slot := 0; slot < 256; slot++ {
			at := base + simnet.Time(slot)*slotDur
			s.slotEvents = append(s.slotEvents, slotEvent{s: s, cycle: cyc, slot: slot})
			sched.AtEvent(at, &s.slotEvents[len(s.slotEvents)-1])
		}
	}
	// Sweeps run from start until all probes are resolved.
	end := cfg.Start + simnet.Time(cfg.Cycles)*cfg.Interval
	for t := cfg.Start + cfg.Sweep; t <= end+cfg.Timeout+2*cfg.Sweep; t += cfg.Sweep {
		sched.AtEvent(t, &s.sweepEv)
	}
}

// sendSlot probes the slot's last octet in every block.
func (s *surveyor) sendSlot(cycle, slot int) {
	// Invert SlotOfOctet: slots 0..127 carry even octets, 128..255 odd.
	oct := octOfSlot(slot)
	slotRank := uint64(cycle)*256 + uint64(slot)
	// Still-outstanding probes to this slot's addresses (possible only in
	// pathological configurations where Interval < Timeout) all live in the
	// slot's previous column; expire them in ascending block order, then
	// claim a fresh column covering every block.
	s.forceExpirePrior(int64(slotRank), oct)
	s.ring.claim(int64(slotRank), s.sched.Now(), len(s.cfg.Blocks))
	for bi, b := range s.cfg.Blocks {
		dst := b.Addr(oct)
		gbi := uint64(s.blockOff + bi)
		s.echo = wire.ICMPEcho{
			Type: wire.ICMPTypeEchoRequest,
			ID:   uint16(xrand.Hash(s.cfg.Seed, uint64(dst))),
			Seq:  uint16(cycle),
		}
		s.stats.Probes++
		s.o.probes.Inc()
		// The probe's global rank — its position in the full unsharded
		// probe order — tags the deliveries it causes, so receive can order
		// its records across shards.
		s.seq.SetSendRank(slotRank*uint64(s.blockTotal) + gbi)
		pkt := wire.AppendEcho((*s.buf)[:0], s.cfg.Vantage.Addr, dst, &s.echo)
		*s.buf = pkt
		s.tr.SendTo(transport.InPacket, pkt)
	}
}

// receive handles a delivered packet (batch).
func (s *surveyor) receive(at transport.Time, from transport.Addr, data []byte, count int) {
	_ = from // source address rides inside the wire packet
	if s.cfg.ResponseDropRate > 0 {
		// Vantage-side filtering drops response packets independently.
		kept := 0
		for i := 0; i < count; i++ {
			if xrand.HashFloat(s.cfg.Seed, uint64(at), uint64(i), 0xD20) >= s.cfg.ResponseDropRate {
				kept++
			}
		}
		s.stats.Dropped += uint64(count - kept)
		s.o.dropped.Add(uint64(count - kept))
		if kept == 0 {
			return
		}
		count = kept
	}
	p, err := s.dec.Decode(data)
	if err != nil {
		// Corrupt packets are dropped like a kernel would drop them, but
		// counted so a chaos run can audit what the wire did.
		s.stats.CorruptPackets += uint64(count)
		s.o.corrupt.Add(uint64(count))
		return
	}
	// All records of one delivery share its (probe rank, delivery index)
	// key, ordered within the delivery by emission index.
	rank, idx := s.seq.LastDeliveryTag()
	recIdx := uint64(0)
	emit := func(r Record) {
		s.record(r, simnet.ShardKey{At: at, Phase: phaseDeliver, A: rank, B: uint64(idx), C: recIdx})
		recIdx++
	}
	switch {
	case p.Err != nil:
		dst, err := p.Err.QuotedDst()
		if err != nil {
			return
		}
		// The ICMP error resolves the outstanding probe; the analysis
		// ignores error-answered probes (§3.1).
		if c, bi := s.lookup(dst); c != nil {
			c.clear(bi)
		}
		s.stats.Errors++
		s.o.errors.Inc()
		emit(Record{Type: RecError, Addr: dst, When: TruncSecond(at)})
	case p.Echo != nil && p.Echo.Type == wire.ICMPTypeEchoReply:
		src := p.IP.Src
		if c, bi := s.lookup(src); c != nil {
			send := c.sendAt
			c.clear(bi)
			s.stats.Matched++
			s.o.matched.Inc()
			s.o.rtt.Observe(TruncMicro(at - send))
			emit(Record{
				Type: RecMatched, Addr: src,
				When: TruncMicro(send), RTT: TruncMicro(at - send),
			})
			count--
		}
		if count > 0 {
			// Extra copies — duplicates, floods, or responses whose
			// request already timed out — are unmatched. Identical packets
			// arriving together are run-length encoded in the RTT field.
			s.stats.Unmatched += uint64(count)
			s.o.unmatched.Add(uint64(count))
			emit(Record{
				Type: RecUnmatched, Addr: src,
				When: TruncSecond(at), RTT: time.Duration(count),
			})
		}
	}
}

// sweep expires outstanding probes older than the timeout.
func (s *surveyor) sweep() {
	s.sweepPhase(phaseSweep, s.sched.Now())
}

// expireAll times out whatever remains after the run: first the probes
// older than the timeout, then — the survey is over and they will never be
// matched — the younger residue.
func (s *surveyor) expireAll() {
	s.sweepPhase(phaseFinal, endKeyTime)
	s.expireRest()
}

// record emits one record: in a sharded run it is buffered with its merge
// key; otherwise it is written to out, latching the first write error.
func (s *surveyor) record(r Record, key simnet.ShardKey) {
	if s.tag {
		s.tagged = append(s.tagged, simnet.Tagged[Record]{Key: key, Rec: r})
		return
	}
	if s.err != nil {
		return
	}
	if err := s.out.Write(r); err != nil {
		s.err = err
	}
}
