package scamper

import (
	"sort"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/simnet"
	"timeouts/internal/wire"
)

// Traceroute support: TTL-limited ICMP echo probes, matched against the
// time-exceeded errors routers return. Hubble — one of the monitoring
// systems whose timeout the paper examines (§2.2) — "finally declares
// reachability with traceroutes"; this is that capability.

// HopResult is one traceroute hop.
type HopResult struct {
	Hop       int
	Responder ipaddr.Addr
	RTT       time.Duration
	Responded bool
	// Reached marks the hop where the destination itself answered (an
	// echo reply rather than a time-exceeded).
	Reached bool
}

// tracerouteKey matches hop probes.
type tracerouteKey struct {
	dst   ipaddr.Addr
	token uint16
	seq   uint16
}

// ScheduleTraceroute schedules a traceroute to dst: one TTL-limited echo
// probe per hop from 1 to maxHops, spaced `spacing` apart. Results are
// collected for as long as the scheduler runs and read back with
// TracerouteResults.
func (p *Prober) ScheduleTraceroute(dst ipaddr.Addr, start simnet.Time, maxHops int, spacing time.Duration) {
	if maxHops <= 0 {
		maxHops = 30
	}
	token := p.nextToken
	p.nextToken++
	if p.nextToken == 0 {
		p.nextToken = 0x8000
	}
	if p.trPending == nil {
		p.trPending = make(map[tracerouteKey]*HopResult)
		p.trResults = make(map[ipaddr.Addr][]*HopResult)
	}
	sched := p.sched
	// Exact capacity keeps element addresses stable across appends.
	events := make([]hopEvent, 0, maxHops)
	for hop := 1; hop <= maxHops; hop++ {
		events = append(events, hopEvent{p: p, dst: dst, token: token, hop: hop})
		sched.AtEvent(start+simnet.Time(hop-1)*simnet.Time(spacing), &events[hop-1])
	}
}

// hopEvent sends one TTL-limited traceroute probe: a preallocated
// simnet.Event replacing a closure per hop.
type hopEvent struct {
	p     *Prober
	dst   ipaddr.Addr
	token uint16
	hop   int
}

func (e *hopEvent) Run(simnet.Time) {
	p, hop := e.p, e.hop
	res := &HopResult{Hop: hop}
	key := tracerouteKey{dst: e.dst, token: e.token, seq: uint16(hop)}
	p.trPending[key] = res
	p.trResults[e.dst] = append(p.trResults[e.dst], res)
	echo := &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: e.token, Seq: uint16(hop)}
	pkt := wire.AppendEchoTTL((*p.buf)[:0], p.src, e.dst, echo, byte(hop))
	*p.buf = pkt
	p.sentAt[key] = p.sched.Now()
	p.tr.Send(pkt)
}

// TracerouteResults returns the hops recorded for dst in hop order.
func (p *Prober) TracerouteResults(dst ipaddr.Addr) []HopResult {
	rs := p.trResults[dst]
	out := make([]HopResult, len(rs))
	for i, r := range rs {
		out[i] = *r
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hop < out[j].Hop })
	return out
}

// ReachedHop returns the first hop at which the destination itself
// answered, or 0 if it never did.
func (p *Prober) ReachedHop(dst ipaddr.Addr) int {
	for _, r := range p.TracerouteResults(dst) {
		if r.Reached {
			return r.Hop
		}
	}
	return 0
}

// handleTraceroute tries to match an incoming packet to an outstanding
// traceroute probe; it reports whether the packet was consumed.
func (p *Prober) handleTraceroute(at simnet.Time, pkt *wire.Packet) bool {
	if p.trPending == nil {
		return false
	}
	var key tracerouteKey
	var reached bool
	var responder ipaddr.Addr
	switch {
	case pkt.Err != nil && pkt.Err.Type == wire.ICMPTypeTimeExceeded:
		qh, l4, err := pkt.Err.Quoted()
		if err != nil || qh.Protocol != wire.ProtoICMP || len(l4) < 8 {
			return false
		}
		id := uint16(l4[4])<<8 | uint16(l4[5])
		seq := uint16(l4[6])<<8 | uint16(l4[7])
		key = tracerouteKey{dst: qh.Dst, token: id, seq: seq}
		responder = pkt.IP.Src
	case pkt.Echo != nil && pkt.Echo.Type == wire.ICMPTypeEchoReply:
		key = tracerouteKey{dst: pkt.IP.Src, token: pkt.Echo.ID, seq: pkt.Echo.Seq}
		responder = pkt.IP.Src
		reached = true
	default:
		return false
	}
	res, ok := p.trPending[key]
	if !ok {
		return false
	}
	delete(p.trPending, key)
	sent := p.sentAt[key]
	delete(p.sentAt, key)
	res.Responded = true
	res.Responder = responder
	res.RTT = time.Duration(at - sent)
	res.Reached = reached
	return true
}
