package netmodel

import (
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/xrand"
)

// TTL modeling. Replies arrive with their initial TTL decremented once per
// router hop. The paper used received-TTL consistency to identify
// firewall-forged TCP RSTs: "this cluster of responses all had the same TTL
// and applied to all probes to entire /24 blocks" (§5.3). Modeling hop
// counts makes that detection non-trivial, as it was for the authors: host
// replies within a /24 vary in initial TTL (OS mix) and path length, while
// a perimeter firewall answers every address of the block from one router
// with one stack.

// Additional hash salts for TTL draws.
const (
	saltStackTTL = 50 + iota
	saltHops
	saltBlockHops
)

// baseHops approximates router hops between continents: a dozen within a
// continent, up to the low twenties across.
var baseHops = [ipmeta.NumContinents][ipmeta.NumContinents]int{
	{9, 19, 17, 20, 14, 20},
	{19, 10, 18, 20, 15, 14},
	{17, 18, 9, 15, 13, 20},
	{20, 20, 15, 10, 17, 21},
	{14, 15, 13, 17, 8, 15},
	{20, 14, 20, 21, 15, 9},
}

// initialTTL returns the host's OS-stack initial TTL: most hosts 64 (unix
// derivatives), many 128 (Windows), a few 255 (network gear, some unices).
// h is the address hash xrand.Hash(seed, addr).
func initialTTL(h uint64) int {
	u := draw(h, saltStackTTL)
	switch {
	case u < 0.58:
		return 64
	case u < 0.92:
		return 128
	default:
		return 255
	}
}

// hostHops returns the hop count between a vantage continent and the host:
// the continental base, plus per-block routing depth, plus a small per-host
// component (subscriber aggregation). h is the address hash
// xrand.Hash(seed, a).
func (p *Population) hostHops(vc ipmeta.Continent, a ipaddr.Addr, h uint64) int {
	b, ok := p.block(a.Prefix())
	if !ok {
		return baseHops[vc][vc]
	}
	return baseHops[vc][p.catalog[b.as].AS.Continent] + int(b.hops) + int(xrand.Extend(h, saltHops)%3)
}

// edgeHops returns the hop count from a vantage to the block's edge router
// (where perimeter firewalls sit): the block's path minus the subscriber
// tail.
func (p *Population) edgeHops(vc ipmeta.Continent, pre ipaddr.Prefix24) int {
	b, ok := p.block(pre)
	if !ok {
		return baseHops[vc][vc]
	}
	return baseHops[vc][p.catalog[b.as].AS.Continent] + int(b.hops) - 2
}

// replyTTL returns the TTL a prober at the vantage continent observes on a
// reply from the host at a, whose address hash is h.
func (p *Population) replyTTL(vc ipmeta.Continent, a ipaddr.Addr, h uint64) byte {
	ttl := initialTTL(h) - p.hostHops(vc, a, h)
	if ttl < 1 {
		ttl = 1
	}
	return byte(ttl)
}

// FirewallTTL returns the TTL observed on RSTs forged by the block's
// perimeter firewall: a router stack (initial 255) minus the edge path —
// identical for every address of the /24.
func (p *Population) FirewallTTL(vc ipmeta.Continent, pre ipaddr.Prefix24) byte {
	ttl := 255 - p.edgeHops(vc, pre)
	if ttl < 1 {
		ttl = 1
	}
	return byte(ttl)
}

// GatewayTTL returns the TTL on ICMP errors from the block gateway.
func (p *Population) GatewayTTL(vc ipmeta.Continent, pre ipaddr.Prefix24) byte {
	ttl := 255 - p.edgeHops(vc, pre) - 1
	if ttl < 1 {
		ttl = 1
	}
	return byte(ttl)
}
