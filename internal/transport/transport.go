// Package transport is the probe I/O boundary between the probers (survey,
// zmapper, scamper, outage) and the simulated network. A prober attaches a
// SimTransport at its source address together with the handler that
// receives its deliveries, sends encoded wire packets through it, and tags
// each probe with its global send rank, which the sharded merge keys the
// resulting records on (DESIGN.md §13).
//
// The boundary adds no copy and no allocation: Send hands the packet to
// simnet.Network.Send, and deliveries reach the handler straight from the
// network's pooled delivery events. alloc_test.go pins 0 allocs/op on the
// whole send → network → fabric → handler path.
package transport

import (
	"timeouts/internal/ipaddr"
	"timeouts/internal/simnet"
)

// SimTransport is a prober's endpoint on a simnet.Network. Packets carry
// their own IPv4 addressing, so Send takes no destination, and deliveries
// keep the network's exact scheduling, batching and (rank, index) tagging.
// Everything runs on the single-threaded event loop; SimTransport is not
// safe for concurrent use, matching the rest of the simulation.
type SimTransport struct {
	net *simnet.Network
	src ipaddr.Addr
}

// NewSim attaches the prober at src to net; every packet delivered to src
// is handed to h. data is valid only for the duration of the call (the
// fabric may reuse reply buffers), and count >= 1: identical packets the
// fabric batches share one call. Close detaches the prober.
func NewSim(net *simnet.Network, src ipaddr.Addr, h simnet.Handler) *SimTransport {
	net.AttachProber(src, h)
	return &SimTransport{net: net, src: src}
}

// Send injects pkt into the network at the current simulation time; its
// destination rides in its IPv4 header. The caller may reuse pkt as soon as
// Send returns. Sending after Close is a bug, and the network panics.
func (t *SimTransport) Send(pkt []byte) { t.net.Send(t.src, pkt) }

// SetSendRank sets the global probe rank recorded on the deliveries that
// subsequent Sends cause.
func (t *SimTransport) SetSendRank(rank uint64) { t.net.SetSendRank(rank) }

// LastDeliveryTag returns the (rank, index) identity of the delivery whose
// handler is currently executing.
func (t *SimTransport) LastDeliveryTag() (rank uint64, index int) {
	dt := t.net.LastDeliveryTag()
	return dt.Rank, dt.Index
}

// Close detaches the prober, freeing its address. Deliveries already
// scheduled still reach the handler: the network binds each delivery to its
// handler when the probe is sent.
func (t *SimTransport) Close() { t.net.DetachProber(t.src) }
