package transport

import (
	"testing"

	"timeouts/internal/simnet"
)

// BenchmarkSimSendDeliver measures one probe through the transport's
// send → network → fabric → handler path with a stub fabric: the per-probe
// cost every prober pays at this boundary, under the bench-regression gate
// (make bench-compare).
func BenchmarkSimSendDeliver(b *testing.B) {
	sched, net := newReplyNet()
	n := 0
	tr := NewSim(net, testSrc, func(at simnet.Time, data []byte, count int) { n += count })
	defer tr.Close()
	pkt := make([]byte, 128)
	for i := 0; i < 256; i++ { // warm the delivery-event free list and the wheel
		tr.Send(pkt)
		sched.Step()
	}
	n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(pkt)
		sched.Step()
	}
	if n != b.N {
		b.Fatalf("delivered %d of %d", n, b.N)
	}
}
