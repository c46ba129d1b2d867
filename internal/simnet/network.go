package simnet

import (
	"fmt"
	"time"

	"timeouts/internal/faults"
	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
)

// Delivery is one response (or batch of identical responses) the fabric
// produces for a probe: Data arrives at the prober Delay after the probe was
// sent. Count > 1 represents a burst of identical packets arriving together
// — the duplicate/DoS responders of §3.3.2 can answer one echo request with
// millions of copies, which would be wasteful to schedule individually.
type Delivery struct {
	Delay time.Duration
	Data  []byte
	Count int
}

// Fabric models the probed population: given a probe packet sent by the
// prober at `from` at time `at`, it returns the resulting deliveries. A
// Fabric is driven entirely by the single-threaded event loop.
//
// Buffer ownership: pkt is only valid for the duration of the Respond call —
// probers recycle probe buffers through a pool as soon as Send returns, so
// Delivery.Data must not alias pkt. The returned slice itself is consumed
// synchronously by Send (the fabric may reuse it on the next Respond), but
// each Delivery.Data buffer must stay valid until its delivery is handled:
// the network does not copy payloads, and a fabric may share one reply
// buffer across several deliveries (duplicate bursts, flood chunks).
type Fabric interface {
	Respond(from ipaddr.Addr, at Time, pkt []byte) []Delivery
}

// Handler receives packets delivered to a prober. count is >= 1; identical
// packets batched by the fabric share one call.
type Handler func(at Time, data []byte, count int)

// DeliveryTag identifies one delivery by the probe that caused it: the
// caller-assigned rank of the Send (see SetSendRank) and the delivery's
// index within that Send's fabric response. Sharded drivers use the tag to
// build the ShardKey under which a received record merges back into the
// global stream.
type DeliveryTag struct {
	Rank  uint64
	Index int
}

// Network connects probers to a Fabric through the scheduler.
type Network struct {
	sched   *Scheduler
	fabric  Fabric
	probers map[ipaddr.Addr]Handler

	sendRank uint64      // rank attached to deliveries of subsequent Sends
	curTag   DeliveryTag // tag of the delivery currently being handled
	faults   *faults.Plan

	// Stats counts traffic through the fabric.
	Stats struct {
		ProbesSent         uint64
		DeliveriesReceived uint64
		PacketsReceived    uint64 // counts Count-fold batches fully

		// Injected wire faults (zero unless a fault plan is set).
		FaultsCorrupted  uint64
		FaultsTruncated  uint64
		FaultsDuplicated uint64 // deliveries duplicated (not copy count)
	}

	// freeDeliv recycles delivery events: the event loop is single-threaded,
	// so a plain intrusive free list suffices and Send's steady state
	// allocates nothing per delivery.
	freeDeliv *deliveryEvent

	// Observability counters mirroring Stats (nil-safe no-ops unless
	// SetObserver installs them; obsOn gates the hot path to one branch).
	// All are deterministic: each probe is sent and each delivery handled by
	// exactly one shard, so per-shard counts sum to the sequential run's
	// regardless of partitioning.
	obsOn         bool
	obsProbes     *obs.Counter
	obsDeliveries *obs.Counter
	obsPackets    *obs.Counter
	obsCorrupted  *obs.Counter
	obsTruncated  *obs.Counter
	obsDuplicated *obs.Counter
}

// deliveryEvent carries one scheduled delivery to its prober: a pooled
// simnet.Event replacing the closure the network used to allocate per
// delivery.
type deliveryEvent struct {
	n     *Network
	h     Handler
	data  []byte
	count int
	tag   DeliveryTag
	next  *deliveryEvent
}

// Run implements Event: deliver to the handler, then recycle.
func (e *deliveryEvent) Run(now Time) {
	n := e.n
	h, data, count := e.h, e.data, e.count
	n.curTag = e.tag
	// Recycle before invoking the handler so a handler that sends again can
	// reuse this event immediately (all fields are copied out above).
	e.n, e.h, e.data = nil, nil, nil
	e.next = n.freeDeliv
	n.freeDeliv = e
	h(now, data, count)
}

// NewNetwork creates a network driven by sched and answered by fabric.
func NewNetwork(sched *Scheduler, fabric Fabric) *Network {
	return &Network{sched: sched, fabric: fabric, probers: make(map[ipaddr.Addr]Handler)}
}

// Scheduler returns the driving scheduler.
func (n *Network) Scheduler() *Scheduler { return n.sched }

// AttachProber registers a prober's receive handler at the given source
// address. Packets whose IPv4 destination equals addr are handed to h.
func (n *Network) AttachProber(addr ipaddr.Addr, h Handler) {
	if _, dup := n.probers[addr]; dup {
		panic(fmt.Sprintf("simnet: prober address %s already attached", addr))
	}
	n.probers[addr] = h
}

// DetachProber removes a prober registration.
func (n *Network) DetachProber(addr ipaddr.Addr) { delete(n.probers, addr) }

// SetObserver registers the network's traffic counters — and the driving
// scheduler's diagnostic metrics — on reg. A sharded run gives every shard
// network its own registry and merges them afterwards (obs.Registry.Merge),
// which reproduces the sequential counts exactly.
func (n *Network) SetObserver(reg *obs.Registry) {
	n.obsProbes = reg.Counter("simnet.probes_sent")
	n.obsDeliveries = reg.Counter("simnet.deliveries")
	n.obsPackets = reg.Counter("simnet.packets_received")
	n.obsCorrupted = reg.Counter("simnet.faults_corrupted")
	n.obsTruncated = reg.Counter("simnet.faults_truncated")
	n.obsDuplicated = reg.Counter("simnet.faults_duplicated")
	n.obsOn = reg != nil
	n.sched.SetObserver(reg)
}

// SetFaults installs (or, with nil, removes) a fault-injection plan. Wire
// faults are applied per delivery, keyed on the delivery's (rank, index)
// identity, so the same deliveries are faulted whether the run is
// sequential or sharded and the merged output stays deterministic per seed.
func (n *Network) SetFaults(p *faults.Plan) { n.faults = p }

// SetSendRank sets the rank recorded on deliveries produced by subsequent
// Send calls. Probers running as one shard of a sharded scan assign each
// probe its global rank (its position in the full, unsharded probe order)
// so that receive handlers can order records across shards.
func (n *Network) SetSendRank(r uint64) { n.sendRank = r }

// LastDeliveryTag returns the tag of the delivery whose handler is
// currently executing. It is only meaningful during such a callback.
func (n *Network) LastDeliveryTag() DeliveryTag { return n.curTag }

// Send injects a probe packet from the prober at `from` into the network at
// the current simulation time. The fabric's deliveries are scheduled back to
// the prober. The caller may reuse pkt as soon as Send returns (see Fabric).
func (n *Network) Send(from ipaddr.Addr, pkt []byte) {
	h, ok := n.probers[from]
	if !ok {
		panic(fmt.Sprintf("simnet: Send from unattached prober %s", from))
	}
	n.Stats.ProbesSent++
	if n.obsOn {
		n.obsProbes.Inc()
	}
	at := n.sched.Now()
	rank := n.sendRank
	for di, d := range n.fabric.Respond(from, at, pkt) {
		if d.Count == 0 {
			d.Count = 1
		}
		if f, ok := n.faults.WireFaultFor(rank, di, len(d.Data)); ok {
			switch f.Kind {
			case faults.WireCorrupt:
				// The fabric may share buffers across deliveries;
				// corrupt a copy.
				data := append([]byte(nil), d.Data...)
				data[f.Bit/8] ^= 1 << (f.Bit % 8)
				d.Data = data
				n.Stats.FaultsCorrupted++
				n.obsCorrupted.Inc()
			case faults.WireTruncate:
				d.Data = d.Data[:f.Len]
				n.Stats.FaultsTruncated++
				n.obsTruncated.Inc()
			case faults.WireDuplicate:
				d.Count += f.Extra
				n.Stats.FaultsDuplicated++
				n.obsDuplicated.Inc()
			}
		}
		n.Stats.DeliveriesReceived++
		n.Stats.PacketsReceived += uint64(d.Count)
		if n.obsOn {
			n.obsDeliveries.Inc()
			n.obsPackets.Add(uint64(d.Count))
		}
		de := n.freeDeliv
		if de == nil {
			de = &deliveryEvent{}
		} else {
			n.freeDeliv = de.next
			de.next = nil
		}
		de.n, de.h, de.data, de.count = n, h, d.Data, d.Count
		de.tag = DeliveryTag{Rank: rank, Index: di}
		n.sched.AtEvent(at+d.Delay, de)
	}
}
