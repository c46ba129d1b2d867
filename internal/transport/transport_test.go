package transport

import (
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/simnet"
)

// replyFabric answers every probe with the same preallocated deliveries,
// standing in for the population model so that the tests and the benchmark
// see only the transport and network layers.
type replyFabric struct{ replies []simnet.Delivery }

func (f *replyFabric) Respond(ipaddr.Addr, simnet.Time, []byte) []simnet.Delivery {
	return f.replies
}

var testSrc = ipaddr.MustParse("240.0.0.1")

// newReplyNet builds a network whose fabric answers each probe with one
// 64-byte reply after a millisecond.
func newReplyNet() (*simnet.Scheduler, *simnet.Network) {
	sched := &simnet.Scheduler{}
	fab := &replyFabric{replies: []simnet.Delivery{{Delay: time.Millisecond, Data: make([]byte, 64)}}}
	return sched, simnet.NewNetwork(sched, fab)
}

// delivery is one handler call as a test records it.
type delivery struct {
	at    simnet.Time
	data  string
	count int
	rank  uint64
	index int
}

// TestSimDeliversTagged pins what the probers rely on: each of the fabric's
// deliveries reaches the handler at send time plus its delay, with its data
// and batch count, and LastDeliveryTag names the probe's send rank and the
// delivery's index in the fabric's response.
func TestSimDeliversTagged(t *testing.T) {
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, &replyFabric{replies: []simnet.Delivery{
		{Delay: 5 * time.Millisecond, Data: []byte("a")},
		{Delay: 2 * time.Millisecond, Data: []byte("bb"), Count: 3},
	}})
	var got []delivery
	var tr *SimTransport
	tr = NewSim(net, testSrc, func(at simnet.Time, data []byte, count int) {
		rank, index := tr.LastDeliveryTag()
		got = append(got, delivery{at, string(data), count, rank, index})
	})
	defer tr.Close()
	sched.At(10*time.Millisecond, func() {
		tr.SetSendRank(7)
		tr.Send([]byte("probe"))
	})
	sched.Run()
	want := []delivery{
		{12 * time.Millisecond, "bb", 3, 7, 1},
		{15 * time.Millisecond, "a", 1, 7, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d deliveries %+v, want %+v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSimClose pins the closed-endpoint contract: Close frees the address
// for another prober, a Send after it panics rather than vanishing, and a
// delivery scheduled before Close still reaches the handler.
func TestSimClose(t *testing.T) {
	sched, net := newReplyNet()
	late := 0
	tr := NewSim(net, testSrc, func(simnet.Time, []byte, int) { late++ })
	tr.Send([]byte("x"))
	tr.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("send on a closed transport did not panic")
			}
		}()
		tr.Send([]byte("x"))
	}()
	again := NewSim(net, testSrc, func(simnet.Time, []byte, int) {}) // must not panic
	defer again.Close()
	sched.Run()
	if late != 1 {
		t.Fatalf("delivery in flight at Close reached the handler %d times, want 1", late)
	}
}
