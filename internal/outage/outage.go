// Package outage implements the class of systems the paper's advice is
// aimed at: active-probing outage detectors. It provides two simplified
// Trinocular-style block monitors (Quan et al., SIGCOMM 2013), one
// round-robin and one Bayesian, and a single-vantage Thunderping-style host
// monitor with retries (Schulman & Spring, IMC 2011). Each is parameterized
// by the probe timeout, so the headline consequence of the paper can be
// measured directly: short timeouts turn high-latency (but healthy) hosts
// into false losses and false outages. strategy.go adds §7's alternatives
// to a single fixed timeout.
package outage

import (
	"sort"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/simnet"
	"timeouts/internal/transport"
	"timeouts/internal/wire"
)

// probeKey matches responses to probes by (address, id, seq).
type probeKey struct {
	dst ipaddr.Addr
	id  uint16
	seq uint16
}

// prober is a minimal ICMP prober with per-probe timeout callbacks, shared
// by every detector. Its probe I/O goes through a transport.SimTransport,
// like every other prober's.
type prober struct {
	sched   *simnet.Scheduler
	tr      *transport.SimTransport
	src     ipaddr.Addr
	pending map[probeKey]func(at simnet.Time)
	nextID  uint16
}

func newProber(net *simnet.Network, src ipaddr.Addr) *prober {
	p := &prober{sched: net.Scheduler(), src: src, pending: make(map[probeKey]func(simnet.Time)), nextID: 1}
	p.tr = transport.NewSim(net, src, p.receive)
	return p
}

func (p *prober) close() { p.tr.Close() }

// ping sends one echo request; exactly one of onReply/onTimeout fires.
// Responses arriving after the timeout are ignored — this is the behavior
// whose cost the paper quantifies.
func (p *prober) ping(dst ipaddr.Addr, seq uint16, timeout time.Duration, onReply func(rtt time.Duration), onTimeout func()) {
	id := p.nextID
	p.nextID++
	if p.nextID == 0 {
		p.nextID = 1
	}
	key := probeKey{dst: dst, id: id, seq: seq}
	sent := p.sched.Now()
	p.pending[key] = func(at simnet.Time) { onReply(at - sent) }
	p.tr.Send(wire.EncodeEcho(p.src, dst, &wire.ICMPEcho{
		Type: wire.ICMPTypeEchoRequest, ID: id, Seq: seq,
	}))
	p.sched.At(sent+timeout, func() {
		if _, still := p.pending[key]; still {
			delete(p.pending, key)
			onTimeout()
		}
	})
}

func (p *prober) receive(at simnet.Time, data []byte, count int) {
	pkt, err := wire.Decode(data)
	if err != nil || pkt.Echo == nil || pkt.Echo.Type != wire.ICMPTypeEchoReply {
		return
	}
	key := probeKey{dst: pkt.IP.Src, id: pkt.Echo.ID, seq: pkt.Echo.Seq}
	cb, ok := p.pending[key]
	if !ok {
		return
	}
	delete(p.pending, key)
	cb(at) // the callback holds the send time, which the key cannot rebuild
}

// HostMonitorConfig parameterizes a Thunderping-style host monitor.
type HostMonitorConfig struct {
	Src ipaddr.Addr
	// Interval between monitoring rounds per host.
	Interval time.Duration
	// Timeout per probe (the knob under study; Thunderping uses 3 s).
	Timeout time.Duration
	// Retries after a failed probe before the vantage declares the host
	// unresponsive (Thunderping: 10).
	Retries int
	// RetrySpacing between retries.
	RetrySpacing time.Duration
	// Rounds of monitoring.
	Rounds int
	// Start time.
	Start simnet.Time
}

func (c HostMonitorConfig) withDefaults() HostMonitorConfig {
	if c.Interval == 0 {
		c.Interval = 11 * time.Minute
	}
	if c.Timeout == 0 {
		c.Timeout = 3 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 10
	}
	if c.RetrySpacing == 0 {
		c.RetrySpacing = c.Timeout
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	return c
}

// HostReport is the monitoring outcome for one address from one vantage.
type HostReport struct {
	Addr ipaddr.Addr
	// Probes counts every probe (including retries); Losses counts probes
	// with no response within the timeout.
	Probes, Losses int
	// DownRounds counts rounds in which the initial probe and every retry
	// failed — the vantage would declare the host unresponsive.
	DownRounds int
	Rounds     int
}

// FalseLossRate is Losses/Probes: against a population with no real
// outages, every loss beyond genuine packet loss is timeout-induced.
func (r HostReport) FalseLossRate() float64 {
	if r.Probes == 0 {
		return 0
	}
	return float64(r.Losses) / float64(r.Probes)
}

// MonitorHosts runs a host monitor over the addresses and drains the
// scheduler. Each round sends one probe per host and up to Retries retries
// on failure.
func MonitorHosts(net *simnet.Network, cfg HostMonitorConfig, addrs []ipaddr.Addr) []HostReport {
	cfg = cfg.withDefaults()
	pr := newProber(net, cfg.Src)
	defer pr.close()
	reports := make([]HostReport, len(addrs))
	for i, a := range addrs {
		reports[i].Addr = a
		reports[i].Rounds = cfg.Rounds
	}
	sched := net.Scheduler()
	for i := range addrs {
		i := i
		for round := 0; round < cfg.Rounds; round++ {
			round := round
			at := cfg.Start + simnet.Time(round)*cfg.Interval
			sched.At(at, func() {
				mon := &roundMonitor{p: pr, cfg: cfg, rep: &reports[i], seq: uint16(round * 64)}
				mon.attempt(0)
			})
		}
	}
	sched.Run()
	return reports
}

// roundMonitor drives one host's round: initial probe plus retries.
type roundMonitor struct {
	p   *prober
	cfg HostMonitorConfig
	rep *HostReport
	seq uint16
}

func (m *roundMonitor) attempt(try int) {
	m.rep.Probes++
	m.p.ping(m.rep.Addr, m.seq+uint16(try), m.cfg.Timeout,
		func(time.Duration) {}, // an answer ends the round
		func() {
			m.rep.Losses++
			if try+1 <= m.cfg.Retries {
				m.p.sched.After(m.cfg.RetrySpacing, func() { m.attempt(try + 1) })
			} else {
				m.rep.DownRounds++
			}
		})
}

// BlockMonitorConfig parameterizes a Trinocular-style /24 monitor.
type BlockMonitorConfig struct {
	Src     ipaddr.Addr
	Timeout time.Duration
	// AdaptiveProbes is the probe budget per round before declaring a
	// block outage (Trinocular sends up to 15 additional probes).
	AdaptiveProbes int
	Interval       time.Duration
	Rounds         int
	Start          simnet.Time
}

func (c BlockMonitorConfig) withDefaults() BlockMonitorConfig {
	if c.Timeout == 0 {
		c.Timeout = 3 * time.Second
	}
	if c.AdaptiveProbes == 0 {
		c.AdaptiveProbes = 15
	}
	if c.Interval == 0 {
		c.Interval = 11 * time.Minute
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	return c
}

// BlockReport is the outcome of monitoring one /24.
type BlockReport struct {
	Prefix ipaddr.Prefix24
	// Probes counts all probes; Rounds the monitoring rounds; Outages the
	// rounds in which the full adaptive budget failed.
	Probes, Rounds, Outages int
}

// MonitorBlocks runs a Trinocular-style monitor over /24s. Each round
// probes addresses of the block's ever-responsive set round-robin until one
// answers or the budget is exhausted. The set is seeded with the provided
// per-block address lists (Trinocular's "ever-responsive" history).
func MonitorBlocks(net *simnet.Network, cfg BlockMonitorConfig, blocks map[ipaddr.Prefix24][]ipaddr.Addr) []BlockReport {
	cfg = cfg.withDefaults()
	pr := newProber(net, cfg.Src)
	defer pr.close()
	var prefixes []ipaddr.Prefix24
	for p := range blocks {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	reports := make([]BlockReport, len(prefixes))
	sched := net.Scheduler()
	for i, pfx := range prefixes {
		i, pfx := i, pfx
		reports[i].Prefix = pfx
		addrs := blocks[pfx]
		if len(addrs) == 0 {
			continue
		}
		for round := 0; round < cfg.Rounds; round++ {
			round := round
			reports[i].Rounds++
			sched.At(cfg.Start+simnet.Time(round)*cfg.Interval, func() {
				bm := &blockRound{p: pr, cfg: cfg, rep: &reports[i], addrs: addrs, seq: uint16(round)}
				bm.attempt(round, 0)
			})
		}
	}
	sched.Run()
	return reports
}

type blockRound struct {
	p     *prober
	cfg   BlockMonitorConfig
	rep   *BlockReport
	addrs []ipaddr.Addr
	seq   uint16
}

func (b *blockRound) attempt(round, try int) {
	if try > b.cfg.AdaptiveProbes {
		b.rep.Outages++
		return
	}
	dst := b.addrs[(round+try)%len(b.addrs)]
	b.rep.Probes++
	b.p.ping(dst, b.seq, b.cfg.Timeout,
		func(time.Duration) {}, // one answer proves the block is up
		func() { b.attempt(round, try+1) })
}
