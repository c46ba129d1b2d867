// Package scamper implements a scamper-style stateful prober (Luckie, IMC
// 2010): ping trains with configurable spacing, probes over ICMP, UDP and
// TCP ACK, and explicit per-probe matching by id/sequence (unlike the ISI
// surveyor's source-address matching). The paper uses scamper for its
// verification experiments (§5.1, §5.3) and for the first-ping and
// high-latency-pattern studies (§6.3, §6.4).
//
// Responses are collected for as long as the simulation runs — the
// equivalent of the paper running tcpdump alongside scamper to get an
// "indefinite" timeout — so arbitrarily late responses are observed.
package scamper

import (
	"fmt"
	"sort"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
	"timeouts/internal/transport"
	"timeouts/internal/wire"
)

// Proto selects a probe protocol.
type Proto uint8

// Probe protocols. TCP probes are bare ACKs: the paper avoided SYNs so its
// probes would not be mistaken for vulnerability scanning (§5.3).
const (
	ICMP Proto = iota
	UDP
	TCP
)

var protoNames = [...]string{"icmp", "udp", "tcp"}

// String names the protocol.
func (p Proto) String() string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return "Proto?"
}

// ProbeResult records the fate of one probe.
type ProbeResult struct {
	Dst       ipaddr.Addr
	Proto     Proto
	Seq       int
	SentAt    simnet.Time
	Responded bool
	RTT       time.Duration
	// ReplyTTL is the TTL of the response packet; TCP RSTs forged by
	// perimeter firewalls stand out by their distinct TTL (§5.3).
	ReplyTTL byte
}

// Prober is a stateful prober attached to the network. Create with New,
// schedule experiments, run the scheduler, then read results.
type Prober struct {
	net       *simnet.Network // kept for SetObserver; probe I/O goes via tr
	tr        *transport.SimTransport
	sched     *simnet.Scheduler
	src       ipaddr.Addr
	nextToken uint16
	pending   map[probeKey]*ProbeResult
	results   []*ProbeResult
	decodeErr uint64

	// Observability (nil-safe no-ops unless SetObserver installs them).
	obsProbes    *obs.Counter
	obsResponses *obs.Counter
	obsDecodeErr *obs.Counter
	obsRTT       *obs.Histogram

	// Hot-path scratch: reusable decoder and pooled probe buffer.
	dec wire.Decoder
	buf *[]byte
}

// pingEvent is one scheduled ping of a train: a preallocated simnet.Event
// replacing a closure per probe.
type pingEvent struct {
	p          *Prober
	dst        ipaddr.Addr
	proto      Proto
	token, seq uint16
}

func (e *pingEvent) Run(simnet.Time) { e.p.send(e.dst, e.proto, e.token, e.seq) }

// udpProbePayload is the fixed payload scamper-style UDP probes carry.
var udpProbePayload = []byte{0xDE, 0xAD, 0xBE, 0xEF}

// probeKey identifies an outstanding probe for explicit matching.
type probeKey struct {
	dst   ipaddr.Addr
	proto Proto
	token uint16 // ICMP id / UDP+TCP source port
	seq   uint16
}

// New attaches a prober at src.
func New(net *simnet.Network, src ipaddr.Addr) *Prober {
	p := &Prober{
		net:       net,
		sched:     net.Scheduler(),
		src:       src,
		nextToken: 0x8000, // tokens double as source ports; stay ephemeral
		pending:   make(map[probeKey]*ProbeResult),
		buf:       wire.GetBuf(),
	}
	p.tr = transport.NewSim(net, src, p.receive)
	return p
}

// Close detaches the prober from the network.
func (p *Prober) Close() {
	p.tr.Close()
	if p.buf != nil {
		wire.PutBuf(p.buf)
		p.buf = nil
	}
}

// SetObserver registers the prober's metrics — probes sent, responses
// matched, decode errors, and a per-probe RTT histogram — plus the
// network/scheduler substrate metrics on reg.
func (p *Prober) SetObserver(reg *obs.Registry) {
	p.obsProbes = reg.Counter("scamper.probes_sent")
	p.obsResponses = reg.Counter("scamper.responses")
	p.obsDecodeErr = reg.Counter("scamper.decode_errors")
	p.obsRTT = reg.Histogram("scamper.rtt")
	p.net.SetObserver(reg)
}

// Src returns the prober's source address.
func (p *Prober) Src() ipaddr.Addr { return p.src }

// SchedulePing schedules count probes of the given protocol to dst,
// starting at start, spaced by interval. All probes of the train share one
// token, so trains to the same destination can coexist.
func (p *Prober) SchedulePing(dst ipaddr.Addr, proto Proto, start simnet.Time, count int, interval time.Duration) {
	token := p.nextToken
	p.nextToken++
	if p.nextToken == 0 {
		p.nextToken = 0x8000
	}
	sched := p.sched
	// Exact capacity keeps element addresses stable across appends.
	events := make([]pingEvent, 0, count)
	for i := 0; i < count; i++ {
		events = append(events, pingEvent{p: p, dst: dst, proto: proto, token: token, seq: uint16(i)})
		sched.AtEvent(start+simnet.Time(i)*interval, &events[i])
	}
}

// send emits one probe and registers it for matching.
func (p *Prober) send(dst ipaddr.Addr, proto Proto, token, seq uint16) {
	now := p.sched.Now()
	res := &ProbeResult{Dst: dst, Proto: proto, Seq: int(seq), SentAt: now}
	key := probeKey{dst: dst, proto: proto, token: token, seq: seq}
	if old, dup := p.pending[key]; dup {
		// A previous identical probe is still unanswered; keep the newer
		// one (matches scamper, which reuses ids across long runs).
		_ = old
	}
	p.pending[key] = res
	p.results = append(p.results, res)
	p.obsProbes.Inc()

	var pkt []byte
	b := (*p.buf)[:0]
	switch proto {
	case ICMP:
		pkt = wire.AppendEcho(b, p.src, dst, &wire.ICMPEcho{
			Type: wire.ICMPTypeEchoRequest, ID: token, Seq: seq,
		})
	case UDP:
		// Destination ports walk the traceroute range by sequence; the
		// source port carries the token. The quoted probe inside the ICMP
		// error returns both.
		pkt = wire.AppendUDP(b, p.src, dst, &wire.UDP{
			SrcPort: token, DstPort: 33435 + seq,
			Payload: udpProbePayload,
		})
	case TCP:
		// Bare ACK; Ack number encodes the sequence so the RST's Seq
		// reflects it back.
		pkt = wire.AppendTCP(b, p.src, dst, &wire.TCP{
			SrcPort: token, DstPort: 80,
			Ack: uint32(seq)<<16 | 0x5CA9, Flags: wire.TCPFlagACK, Window: 1024,
		})
	default:
		panic(fmt.Sprintf("scamper: unknown protocol %d", proto))
	}
	*p.buf = pkt
	p.tr.Send(pkt)
}

// DecodeErrors returns how many received packets failed to decode — wire
// noise (or injected corruption) the prober counted and continued past.
func (p *Prober) DecodeErrors() uint64 { return p.decodeErr }

// receive matches responses to outstanding probes.
func (p *Prober) receive(at simnet.Time, data []byte, count int) {
	pkt, err := p.dec.Decode(data)
	if err != nil {
		p.decodeErr += uint64(count)
		p.obsDecodeErr.Add(uint64(count))
		return
	}
	var key probeKey
	var ttl byte = pkt.IP.TTL
	switch {
	case pkt.Echo != nil && pkt.Echo.Type == wire.ICMPTypeEchoReply:
		key = probeKey{dst: pkt.IP.Src, proto: ICMP, token: pkt.Echo.ID, seq: pkt.Echo.Seq}
	case pkt.Err != nil:
		// An ICMP error answering a UDP probe: recover ports from the
		// quoted probe.
		qh, l4, err := pkt.Err.Quoted()
		if err != nil || len(l4) < 4 {
			return
		}
		switch qh.Protocol {
		case wire.ProtoUDP:
			sp := uint16(l4[0])<<8 | uint16(l4[1])
			dp := uint16(l4[2])<<8 | uint16(l4[3])
			if dp < 33435 {
				return
			}
			key = probeKey{dst: qh.Dst, proto: UDP, token: sp, seq: dp - 33435}
		default:
			return
		}
	case pkt.TCP != nil && pkt.TCP.Flags&wire.TCPFlagRST != 0:
		seq := uint16(pkt.TCP.Seq >> 16)
		if pkt.TCP.Seq&0xffff != 0x5CA9 {
			return
		}
		key = probeKey{dst: pkt.IP.Src, proto: TCP, token: pkt.TCP.DstPort, seq: seq}
	default:
		return
	}
	res, ok := p.pending[key]
	if !ok {
		return // duplicate or stray; scamper ignores these
	}
	delete(p.pending, key)
	res.Responded = true
	res.RTT = time.Duration(at - res.SentAt)
	res.ReplyTTL = ttl
	p.obsResponses.Inc()
	p.obsRTT.Observe(res.RTT)
}

// Results returns every probe result, ordered by (destination, protocol,
// send time). Unanswered probes have Responded=false.
func (p *Prober) Results() []ProbeResult {
	out := make([]ProbeResult, len(p.results))
	for i, r := range p.results {
		out[i] = *r
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dst != out[j].Dst {
			return out[i].Dst < out[j].Dst
		}
		if out[i].Proto != out[j].Proto {
			return out[i].Proto < out[j].Proto
		}
		return out[i].SentAt < out[j].SentAt
	})
	return out
}

// ResultsFor returns the results for one destination and protocol in send
// order.
func (p *Prober) ResultsFor(dst ipaddr.Addr, proto Proto) []ProbeResult {
	var out []ProbeResult
	for _, r := range p.results {
		if r.Dst == dst && r.Proto == proto {
			out = append(out, *r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SentAt < out[j].SentAt })
	return out
}
