package netmodel

import (
	"fmt"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/simnet"
	"timeouts/internal/wire"
	"timeouts/internal/xrand"
)

// Additional hash salts for per-probe draws.
const (
	saltProbeLoss = 30 + iota
	saltBcastResp
	saltSvcJitter
	saltFwJitter
	saltGwJitter
	saltDupChunk
	saltAwake
)

// propRTT is the base round-trip propagation between continents in seconds,
// indexed [vantage continent][host continent] in ipmeta order (SA, Asia,
// Europe, Africa, NA, Oceania). Symmetric.
var propRTT = [ipmeta.NumContinents][ipmeta.NumContinents]float64{
	{0.040, 0.260, 0.210, 0.290, 0.150, 0.280},
	{0.260, 0.060, 0.230, 0.280, 0.160, 0.140},
	{0.210, 0.230, 0.040, 0.160, 0.130, 0.280},
	{0.290, 0.280, 0.160, 0.060, 0.200, 0.320},
	{0.150, 0.160, 0.130, 0.200, 0.040, 0.160},
	{0.280, 0.140, 0.280, 0.320, 0.160, 0.050},
}

// PropagationRTT exposes the base inter-continent RTT (for tests and docs).
func PropagationRTT(vantage, host ipmeta.Continent) time.Duration {
	return time.Duration(propRTT[vantage][host] * float64(time.Second))
}

// hostState is the minimal per-host mutable state: cellular radio activity.
// Everything else the model does is a pure function of (seed, addr, time).
type hostState struct {
	lastActive float64 // time the radio was last carrying traffic
	wakeUntil  float64 // if > lastActive, radio is mid-wake until this time
	used       bool
}

// Model implements simnet.Fabric over a Population: it turns probe packets
// into the deliveries a 2015-Internet host population would have produced.
type Model struct {
	pop      *Population
	vantages map[ipaddr.Addr]ipmeta.Continent

	// The last vantage looked up: a prober sends every probe from one
	// address, so Respond rarely needs the map.
	lastFrom ipaddr.Addr
	lastVC   ipmeta.Continent
	lastOK   bool

	// radio holds the cellular radio state of recently active hosts in a
	// bounded open-addressing table; see densestate.go for why evicting
	// long-idle entries cannot change any output.
	radio radioTable

	// Per-call scratch. Respond is invoked synchronously from Send, which
	// consumes the returned slice before the next probe, so the delivery
	// slice, decoder, quote buffer and reply message are all reusable.
	// Reply *packet* buffers are not: a delivery's Data must stay valid
	// until handled (see simnet.Fabric), so those still allocate.
	dec       wire.Decoder
	deliv     []simnet.Delivery
	quote     []byte
	replyEcho wire.ICMPEcho
	prof      Profile // the probed host

	// Stats counts model decisions, useful for validating population
	// composition in tests.
	Stats struct {
		EchoProbes, UDPProbes, TCPProbes uint64
		Lost, Sleepy, Woken              uint64
		BroadcastFanouts                 uint64
	}
}

// NewModel wraps a population in a fabric.
//
// A model's probe times must never go back past its radio table's last
// prune: the table evicts hosts idle for longer than any idle timeout, which
// is invisible only to probes at or after the eviction. Driving one model
// from one simnet.Scheduler satisfies this (its clock is monotone); a model
// reused for a run that starts earlier must call ResetRadioState first. A
// probe that violates the rule panics instead of silently diverging.
func NewModel(pop *Population) *Model {
	return &Model{
		pop:      pop,
		vantages: make(map[ipaddr.Addr]ipmeta.Continent),
	}
}

// Population returns the underlying population.
func (m *Model) Population() *Population { return m.pop }

// AddVantage registers a prober address and its continent. Probes must
// originate from registered vantages so the model can compute propagation.
func (m *Model) AddVantage(addr ipaddr.Addr, c ipmeta.Continent) {
	m.vantages[addr] = c
	m.lastOK = false
}

// vantage returns the continent of a registered prober address.
func (m *Model) vantage(from ipaddr.Addr) ipmeta.Continent {
	if m.lastOK && from == m.lastFrom {
		return m.lastVC
	}
	vc, ok := m.vantages[from]
	if !ok {
		panic(fmt.Sprintf("netmodel: probe from unregistered vantage %s", from))
	}
	m.lastFrom, m.lastVC, m.lastOK = from, vc, true
	return vc
}

// ResetRadioState clears cellular radio state, as if all devices had been
// idle for a long time. Tools use it between independent experiments. It is
// O(1): the bounded table and its prune record are simply dropped, which is
// exactly equivalent to a fresh model (a missing entry and a long-idle
// entry behave identically in wakeHold), so probing may restart at any
// time.
func (m *Model) ResetRadioState() { m.radio = radioTable{} }

// Respond implements simnet.Fabric.
func (m *Model) Respond(from ipaddr.Addr, at simnet.Time, pkt []byte) []simnet.Delivery {
	vc := m.vantage(from)
	p, err := m.dec.Decode(pkt)
	if err != nil {
		return nil // a malformed probe dies in the network
	}
	t := at.Seconds()
	switch {
	case p.Echo != nil && p.Echo.Type == wire.ICMPTypeEchoRequest:
		m.Stats.EchoProbes++
		return m.respondEcho(vc, from, p, t)
	case p.UDP != nil:
		m.Stats.UDPProbes++
		return m.respondUDP(vc, from, p, t)
	case p.TCP != nil:
		m.Stats.TCPProbes++
		return m.respondTCP(vc, from, p, t)
	}
	return nil
}

// respondEcho handles an ICMP echo request.
func (m *Model) respondEcho(vc ipmeta.Continent, from ipaddr.Addr, p *wire.Packet, t float64) []simnet.Delivery {
	dst := p.IP.Dst

	// Probes to subnet network/broadcast addresses can fan out (§3.3.1).
	if b, ok := m.pop.block(dst.Prefix()); ok {
		if bp := b.profile(dst.Prefix()); bp.IsSpecial(dst.LastOctet()) {
			return m.respondBroadcast(vc, from, p, bp, t)
		}
	}

	pr := &m.prof
	m.pop.profileInto(pr, dst)
	if !m.responsiveAt(pr, t) {
		return m.gatewayError(vc, from, p, pr, t)
	}
	delay, ok := m.pathDelay(pr, vc, t)
	if !ok {
		return nil
	}
	p.Echo.ReplyInto(&m.replyEcho)
	reply := wire.EncodeEchoTTL(dst, from, &m.replyEcho, m.pop.replyTTL(vc, dst, pr.h))
	return m.withDuplicates(pr, t, delay, reply)
}

// respondUDP handles a UDP probe: hosts answer with ICMP port unreachable
// (no servers listen on the prober's high ports), which still measures the
// full path and host wake-up, so "all protocols are treated the same" (§5.3).
func (m *Model) respondUDP(vc ipmeta.Continent, from ipaddr.Addr, p *wire.Packet, t float64) []simnet.Delivery {
	dst := p.IP.Dst
	pr := &m.prof
	m.pop.profileInto(pr, dst)
	if !m.responsiveAt(pr, t) {
		return m.gatewayError(vc, from, p, pr, t)
	}
	delay, ok := m.pathDelay(pr, vc, t)
	if !ok {
		return nil
	}
	// Quote the probe's IP header + first 8 payload bytes, per RFC 792.
	quote := m.quoteFor(p)
	reply := wire.EncodeICMPErrorTTL(dst, from, &wire.ICMPError{
		Type: wire.ICMPTypeDstUnreachable, Code: wire.ICMPCodePortUnreachable, Original: quote,
	}, m.pop.replyTTL(vc, dst, pr.h))
	return m.deliver(simnet.Delivery{Delay: durOf(delay), Data: reply})
}

// respondTCP handles a TCP ACK probe: a perimeter firewall may answer with
// an immediate RST for the whole block; otherwise the host itself RSTs
// after the full path delay.
func (m *Model) respondTCP(vc ipmeta.Continent, from ipaddr.Addr, p *wire.Packet, t float64) []simnet.Delivery {
	dst := p.IP.Dst
	if b, ok := m.pop.block(dst.Prefix()); ok && b.firewall {
		cont := m.pop.catalog[b.as].AS.Continent
		rng := xrand.Seeded(m.pop.cfg.Seed, uint64(dst), saltFwJitter, usOf(t))
		delay := propRTT[vc][cont]*(0.85+0.1*rng.Float64()) + 0.045 + rng.Exp(0.03)
		rst := p.TCP.RST()
		reply := wire.EncodeTCPTTL(dst, from, rst, m.pop.FirewallTTL(vc, dst.Prefix()))
		return m.deliver(simnet.Delivery{Delay: durOf(delay), Data: reply})
	}
	pr := &m.prof
	m.pop.profileInto(pr, dst)
	if !m.responsiveAt(pr, t) {
		return nil
	}
	delay, ok := m.pathDelay(pr, vc, t)
	if !ok {
		return nil
	}
	reply := wire.EncodeTCPTTL(dst, from, p.TCP.RST(), m.pop.replyTTL(vc, dst, pr.h))
	return m.deliver(simnet.Delivery{Delay: durOf(delay), Data: reply})
}

// respondBroadcast fans an echo request sent to a subnet broadcast (or
// network) address out to the subnet's devices; those configured to answer
// reply with their *own* source address (§3.3.1, Figure 2).
func (m *Model) respondBroadcast(vc ipmeta.Continent, from ipaddr.Addr, p *wire.Packet, bp BlockProfile, t float64) []simnet.Delivery {
	last := p.IP.Dst.LastOctet()
	isBcast := bp.IsBroadcast(last)
	if isBcast && !bp.BroadcastEnabled {
		return nil
	}
	if !isBcast && !bp.NetworkReplies {
		return nil
	}
	out := m.deliv[:0]
	base := bp.SubnetOf(last)
	pr := &m.prof
	for i := 0; i < bp.SubnetSize(); i++ {
		a := p.IP.Dst.Prefix().Addr(base + byte(i))
		if a == p.IP.Dst {
			continue
		}
		m.pop.profileInto(pr, a)
		if !pr.RespondsToBroadcast {
			continue
		}
		// Answering the network address is the rarer, old-stack behavior.
		hb := xrand.Extend(pr.h, saltBcastResp)
		if !isBcast && xrand.Float01(hb) > 0.6 {
			continue
		}
		// Most broadcast responders answer nearly every round; a rare few
		// answer only ~once in 50 rounds — the population behind the
		// paper's 0.13% filter false-negative rate (§3.3.1).
		brLoss := 0.02
		if draw(hb, 7) < 0.01 {
			brLoss = 0.98
		}
		if draw(hb, usOf(t)) < brLoss {
			continue
		}
		// Broadcast responders are LAN devices; their latency is the plain
		// path plus their access link — deliberately *stable*, which is the
		// property the paper's EWMA filter keys on. Their access component
		// is drawn here because many of them are not directly responsive
		// and so carry no access profile.
		jitter := 0.8 + 0.7*draw(pr.h, saltDistance)
		access := 0.01 + 0.05*draw(pr.h, saltAccess)
		rng := xrand.FromHash(xrand.Extend(pr.h, saltSvcJitter, usOf(t)))
		delay := propRTT[vc][pr.AS.Continent]*jitter + access + rng.Exp(0.006)
		p.Echo.ReplyInto(&m.replyEcho)
		reply := wire.EncodeEchoTTL(a, from, &m.replyEcho, m.pop.replyTTL(vc, a, pr.h))
		out = append(out, simnet.Delivery{Delay: durOf(delay), Data: reply})
	}
	m.deliv = out
	if len(out) > 0 {
		m.Stats.BroadcastFanouts++
	}
	return out
}

// gatewayError emits a host-unreachable from the block gateway for a small
// share of unoccupied addresses. The survey records these and then ignores
// the probes (§3.1: "we ignore all probes associated with such responses").
func (m *Model) gatewayError(vc ipmeta.Continent, from ipaddr.Addr, p *wire.Packet, pr *Profile, t float64) []simnet.Delivery {
	if !pr.ICMPErrorResponder {
		return nil
	}
	gw := p.IP.Dst.Prefix().Addr(1)
	rng := xrand.FromHash(xrand.Extend(pr.h, saltGwJitter, usOf(t)))
	delay := propRTT[vc][pr.AS.Continent]*(0.9+0.2*rng.Float64()) + 0.01 + rng.Exp(0.01)
	reply := wire.EncodeICMPErrorTTL(gw, from, &wire.ICMPError{
		Type: wire.ICMPTypeDstUnreachable, Code: wire.ICMPCodeHostUnreachable, Original: m.quoteFor(p),
	}, m.pop.GatewayTTL(vc, p.IP.Dst.Prefix()))
	return m.deliver(simnet.Delivery{Delay: durOf(delay), Data: reply})
}

// pathDelay computes the full probe->response delay for a responsive host,
// or reports the probe lost. It is the composition of the model's latency
// sources: loss, buffered-outage episodes, cellular wake-up, queueing, and
// the base path.
func (m *Model) pathDelay(pr *Profile, vc ipmeta.Continent, t float64) (float64, bool) {
	us := usOf(t)

	// Plain packet loss.
	if draw(pr.h, saltProbeLoss, us) < pr.LossRate {
		m.Stats.Lost++
		return 0, false
	}

	svc := propRTT[vc][pr.AS.Continent]*pr.DistanceJitter + pr.AccessRTT + pr.SatBase
	rng := xrand.FromHash(xrand.Extend(pr.h, saltSvcJitter, us))
	svc += rng.Exp(0.008)

	// Buffered-outage episodes override everything else: the device is
	// unreachable and its probes are buffered, delayed enormously, or lost.
	if ev, in := m.pop.sleepyAt(pr, t); in {
		m.Stats.Sleepy++
		if ev.lost {
			return 0, false
		}
		return svc + ev.delay, true
	}

	var hold float64
	if pr.Class == ClassCellular {
		hold = m.wakeHold(pr, t)
		if hold > 0 {
			m.Stats.Woken++
		}
	}

	queue := m.pop.congestionDelay(pr, m.congLevel(pr), t)
	return svc + queue + hold, true
}

// responsiveAt reports whether the host answers probes at time t,
// accounting for late joiners.
func (m *Model) responsiveAt(pr *Profile, t float64) bool {
	return pr.Responsive && t >= pr.JoinTime
}

// congLevel returns the AS congestion level for the profile's AS.
func (m *Model) congLevel(pr *Profile) float64 {
	spec, ok := m.pop.spec(pr.Addr.Prefix())
	if !ok {
		return 0
	}
	return spec.CongestionLevel
}

// wakeHold advances the cellular radio state machine for a probe arriving
// at t and returns how long the probe is held before the device can answer.
// Probes arriving while the radio negotiates are all released together when
// it is ready — which is why the paper sees RTT1-RTT2 differences of almost
// exactly the probe spacing (Figure 12).
func (m *Model) wakeHold(pr *Profile, t float64) float64 {
	st := m.radio.get(uint32(pr.Addr), t)
	var hold float64
	switch {
	case st.used && t < st.wakeUntil:
		hold = st.wakeUntil - t
	case !st.used || t-st.lastActive > pr.IdleTimeout:
		// The device's own traffic sometimes has the radio up already; for
		// those probes the first ping pays no penalty. This is the minority of
		// high-latency addresses the paper finds with RTT1 at or below the
		// median of the rest (§6.3).
		if draw(pr.h, saltAwake, usOf(t)) < 0.25 {
			break
		}
		w := drawWake(pr.h, t)
		st.wakeUntil = t + w
		hold = w
	}
	st.used = true
	if t+hold > st.lastActive {
		st.lastActive = t + hold
	}
	return hold
}

// withDuplicates wraps a reply according to the host's duplication profile:
// most hosts send one copy; duplicating links send 2-4 together; DoS-style
// responders send huge counts spread over minutes (§3.3.2, Figure 5).
func (m *Model) withDuplicates(pr *Profile, t, delay float64, reply []byte) []simnet.Delivery {
	switch {
	case pr.DupCount < 2:
		return m.deliver(simnet.Delivery{Delay: durOf(delay), Data: reply})
	case pr.DupCount <= 4:
		return m.deliver(simnet.Delivery{Delay: durOf(delay), Data: reply, Count: pr.DupCount})
	}
	// Flood: first copy at the natural delay, the rest in chunks over the
	// following minutes (the paper saw ~11M responses inside 11 minutes).
	rng := xrand.FromHash(xrand.Extend(pr.h, saltDupChunk, usOf(t)))
	const chunks = 8
	out := append(m.deliv[:0], simnet.Delivery{Delay: durOf(delay), Data: reply})
	remaining := pr.DupCount - 1
	spread := 60 + 540*rng.Float64()
	for i := 0; i < chunks && remaining > 0; i++ {
		n := remaining / (chunks - i)
		if i == chunks-1 {
			n = remaining
		}
		if n == 0 {
			continue
		}
		remaining -= n
		at := delay + spread*float64(i+1)/chunks*(0.8+0.4*rng.Float64())
		out = append(out, simnet.Delivery{Delay: durOf(at), Data: reply, Count: n})
	}
	m.deliv = out
	return out
}

// deliver returns a single-delivery slice backed by the model's scratch;
// Send consumes it before the next Respond.
func (m *Model) deliver(d simnet.Delivery) []simnet.Delivery {
	m.deliv = append(m.deliv[:0], d)
	return m.deliv
}

// quoteFor builds the ICMP error quote into the model's scratch buffer: the
// probe's IPv4 header plus its first 8 payload bytes, per RFC 792. The bytes
// are copied into the reply packet before the next Respond overwrites them.
func (m *Model) quoteFor(p *wire.Packet) []byte {
	q := p.IP.AppendTo(m.quote[:0])
	n := len(p.L4)
	if n > 8 {
		n = 8
	}
	q = append(q, p.L4[:n]...)
	m.quote = q
	return q
}

// durOf converts seconds to a Duration, clamping negatives to zero.
func durOf(s float64) time.Duration {
	if s < 0 {
		s = 0
	}
	return time.Duration(s * float64(time.Second))
}
