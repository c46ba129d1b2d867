package netmodel

import (
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/xrand"
)

// IndexOf inverts AddrAt.
func (p *Population) IndexOf(a ipaddr.Addr) int {
	return int(uint32(a) - uint32(baseBlock)<<8)
}

// ReplyTTL returns the TTL a prober at the vantage continent observes on a
// reply from the host.
func (p *Population) ReplyTTL(vc ipmeta.Continent, a ipaddr.Addr) byte {
	return p.replyTTL(vc, a, xrand.Hash(p.cfg.Seed, uint64(a)))
}

// SleepyEvent is the exported view of a probe's fate inside a
// buffered-outage episode.
type SleepyEvent struct {
	Mode  SleepyMode
	Lost  bool
	Delay float64 // seconds
}

// SleepyAt exposes the sleepy-episode decision for a probe at time t
// (seconds).
func (p *Population) SleepyAt(pr *Profile, t float64) (SleepyEvent, bool) {
	ev, ok := p.sleepyAt(p.hashed(pr), t)
	if !ok {
		return SleepyEvent{}, false
	}
	return SleepyEvent{Mode: ev.mode, Lost: ev.lost, Delay: ev.delay}, true
}

// CongestionDelayAt exposes the queueing-delay draw for a probe at time t
// (seconds).
func (p *Population) CongestionDelayAt(pr *Profile, level float64, t float64) float64 {
	return p.congestionDelay(p.hashed(pr), level, t)
}

// hashed returns a copy of pr carrying its address hash, as Profile sets
// it, so a profile a test builds by hand draws as a derived one does.
func (p *Population) hashed(pr *Profile) *Profile {
	q := *pr
	q.h = xrand.Hash(p.cfg.Seed, uint64(q.Addr))
	return &q
}
