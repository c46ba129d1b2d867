package core

import (
	"math"
	"time"

	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// OpenProbes is one address's open-probe ring: its last two probes, the
// only ones a future unmatched response can still be credited to (DESIGN.md
// §9 argues why two suffice). It is the attribution kernel the matcher and
// the advisor's ingest store share. The zero value is empty.
type OpenProbes struct {
	send     [2]time.Duration // send times; [n-1] is the newest
	resp     [2]int           // response packets credited to each probe
	resolved [2]bool          // matched, or already credited with a delayed response
	n        int8
}

// Push opens a probe sent at send, evicting the oldest if two are open, and
// returns the evicted probe's response count (0 when nothing was evicted).
// A matched probe opens resolved, holding its one response.
func (o *OpenProbes) Push(send time.Duration, matched bool) (evicted int) {
	if o.n == 2 {
		evicted = o.resp[0]
		o.send[0], o.resp[0], o.resolved[0] = o.send[1], o.resp[1], o.resolved[1]
		o.n = 1
	}
	o.send[o.n], o.resp[o.n], o.resolved[o.n] = send, 0, matched
	if matched {
		o.resp[o.n] = 1
	}
	o.n++
	return evicted
}

// Attribute credits count response packets arriving at `at` to the newest
// open probe sent strictly before it — the paper's §3.3 rule. The boundary
// must be strict: record times are truncated (to seconds for timeout and
// unmatched records), so a response can land exactly on a later probe's
// recorded send instant, and crediting that just-sent probe would
// manufacture a zero-latency sample; the response belongs to the earlier,
// timed-out probe. The first credit to a timed-out probe yields its latency
// sample (fresh); later credits, and credits to a matched probe, are
// duplicates. A response preceding every open probe is stray traffic and
// changes nothing.
func (o *OpenProbes) Attribute(at time.Duration, count int) (lat time.Duration, fresh bool) {
	for i := int(o.n) - 1; i >= 0; i-- {
		if o.send[i] >= at {
			continue
		}
		o.resp[i] += count
		if o.resolved[i] {
			return 0, false
		}
		o.resolved[i] = true
		return at - o.send[i], true
	}
	return 0, false
}

// Len returns how many probes are open (0, 1 or 2).
func (o *OpenProbes) Len() int { return int(o.n) }

// Send returns the send time of open probe i; Send(Len()-1) is the newest.
func (o *OpenProbes) Send(i int) time.Duration { return o.send[i] }

// Resolved reports whether open probe i was matched or already credited
// with a delayed response.
func (o *OpenProbes) Resolved(i int) bool { return o.resolved[i] }

// Verdict is one address's §3.3 accounting once its records are done: the
// probes it drew, the duplicate tallies, and the filters' decisions.
type Verdict struct {
	// Probes counts echo requests sent to the address.
	Probes int
	// MaxResponses is the largest number of responses attributed to a
	// single request (Figure 5).
	MaxResponses int
	// Broadcast marks the address as a broadcast responder per the EWMA
	// filter.
	Broadcast bool
	// Duplicate marks the address as exceeding DuplicateMax.
	Duplicate bool
	// ErrorSeen marks addresses whose probes drew ICMP errors; the
	// analysis ignores them entirely (§3.1).
	ErrorSeen bool
	// OutOfOrder marks an address whose records broke emission order (see
	// StreamMatcher), so its responses may be credited to the wrong probes.
	OutOfOrder bool

	packets uint64 // total response packets attributed to this address
}

// Discarded reports whether the filters remove this address.
func (v *Verdict) Discarded() bool { return v.Broadcast || v.Duplicate || v.ErrorSeen }

// ResponsePackets counts all response packets attributed to the address.
func (v *Verdict) ResponsePackets() uint64 { return v.packets }

// matchCell is the state every address a record names keeps: its open-probe
// ring, its probe count, its error and emission-order flags, and the number
// of its responder state once it has one. A survey probes whole /24s (§3.1)
// and most of their addresses never answer, so for most addresses this cell
// is all there is: 56 B.
type matchCell struct {
	ring       OpenProbes
	probes     uint32
	resp       uint32 // 1 + the address's responder number; 0 while it has none
	errorSeen  bool
	outOfOrder bool
}

// responder is the state an address gains with its first matched or
// unmatched record: its samples, the broadcast persistence filter (§3.3.1),
// its newest unmatched arrival for the emission-order check, and the
// duplicate tallies, which accumulate in res's Verdict (MaxResponses and
// packets) until finish completes it.
type responder struct {
	res         AddressResult
	ew          stats.EWMA
	lastRound   int64
	lastLat     time.Duration
	lastArrival time.Duration // newest unmatched arrival seen
}

func newResponder(opt *Options) responder {
	return responder{ew: stats.EWMA{Alpha: opt.BroadcastAlpha}, lastRound: -10, lastArrival: math.MinInt64}
}

// responder returns c's responder state, kept in rs, or nil while c has
// none.
func (c *matchCell) responder(rs *chunks[responder]) *responder {
	if c.resp == 0 {
		return nil
	}
	return rs.at(c.resp - 1)
}

// probe opens a probe sent at send on c, whose responder state is p (nil
// while it has none). In emission order an address's probes come in
// strictly increasing send order, and none was sent before a response
// already seen, which could have been this probe's.
func (c *matchCell) probe(p *responder, send time.Duration, matched bool) {
	if n := c.ring.Len(); n > 0 && send <= c.ring.Send(n-1) || p != nil && send < p.lastArrival {
		c.outOfOrder = true
	}
	c.probes++
	if resp := c.ring.Push(send, matched); resp > 0 {
		p.seal(resp) // only a responder's probes draw responses
	}
}

// seal folds a closed probe's response count into the duplicate tallies.
func (p *responder) seal(resp int) {
	p.res.MaxResponses = max(p.res.MaxResponses, resp)
	p.res.packets += uint64(resp)
}

// response attributes count unmatched response packets arriving at `at` to
// c's open probes and returns the latency sample that yields, if any. A
// fresh sample of at least BroadcastMinLat feeds the broadcast filter,
// which counts rounds in which the address repeats a similar latency. In
// emission order responses arrive in time order, and after the older of two
// open probes: a response arriving no later than that probe's send belongs
// to an evicted one.
func (c *matchCell) response(p *responder, at time.Duration, count int, opt *Options) (lat time.Duration, fresh bool) {
	if at < p.lastArrival || c.ring.Len() == 2 && at <= c.ring.Send(0) {
		c.outOfOrder = true
	}
	p.lastArrival = max(p.lastArrival, at)
	lat, fresh = c.ring.Attribute(at, count)
	if fresh && lat >= opt.BroadcastMinLat {
		round := int64(at / opt.Interval)
		d := lat - p.lastLat
		if d < 0 {
			d = -d
		}
		if round == p.lastRound+1 && d <= opt.BroadcastTol {
			p.ew.Observe(1)
		} else {
			p.ew.Observe(0)
		}
		p.lastRound, p.lastLat = round, lat
	}
	return lat, fresh
}

// finish seals the probes still open on c, the address whose responder
// state p is, and completes p's Verdict; it is called once, when the
// address's records are done. A quiet address's verdict is finish on a
// zero responder.
func (p *responder) finish(c *matchCell, opt *Options) {
	for i := 0; i < c.ring.Len(); i++ {
		p.seal(c.ring.resp[i])
	}
	v := &p.res.Verdict
	v.Probes, v.ErrorSeen, v.OutOfOrder = int(c.probes), c.errorSeen, c.outOfOrder
	v.Broadcast = p.ew.Max() > opt.BroadcastMark
	v.Duplicate = v.MaxResponses > opt.DuplicateMax
}

// responseCount returns how many response packets an unmatched record
// carries (its RTT field holds the count; at least one).
func responseCount(rec survey.Record) int {
	return max(int(rec.RTT), 1)
}
