package transport

import (
	"testing"

	"timeouts/internal/simnet"
)

// The probe path must not allocate in steady state: Send hands the packet to
// the network, whose pooled delivery events carry the fabric's reply to the
// handler, so a long survey or scan leaves no garbage per probe (DESIGN.md
// §6, §13). This pins 0 allocs/op on send → network → fabric → handler.
func TestSimSendAllocFree(t *testing.T) {
	sched, net := newReplyNet()
	got := 0
	tr := NewSim(net, testSrc, func(at simnet.Time, data []byte, count int) { got += count })
	defer tr.Close()
	pkt := make([]byte, 128)
	xfer := func() {
		tr.Send(pkt)
		sched.Step()
	}
	for i := 0; i < 64; i++ {
		xfer() // warm the delivery-event free list and the wheel
	}
	if allocs := testing.AllocsPerRun(1000, xfer); allocs != 0 {
		t.Errorf("sim send+deliver allocates %.1f/op, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("handler never ran")
	}
}
