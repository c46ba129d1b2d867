package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"timeouts/internal/ipaddr"
)

// Pending returns the number of scheduled events.
func (s *Scheduler) Pending() int { return s.n }

func TestSchedulerOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(3*time.Second, func() { got = append(got, 3) })
	s.At(1*time.Second, func() { got = append(got, 1) })
	s.At(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestSchedulerFIFOOnTies(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	var s Scheduler
	var got []string
	s.At(time.Second, func() {
		got = append(got, "a")
		s.After(time.Second, func() { got = append(got, "c") })
		s.After(500*time.Millisecond, func() { got = append(got, "b") })
	})
	s.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("nested order = %v", got)
	}
}

func TestSchedulerPastEventRunsNow(t *testing.T) {
	var s Scheduler
	ran := false
	s.At(time.Minute, func() {
		s.At(time.Second, func() { ran = true }) // in the past
	})
	s.Run()
	if !ran {
		t.Error("past-scheduled event did not run")
	}
	if s.Now() != time.Minute {
		t.Errorf("clock moved backwards: %v", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	var s Scheduler
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(5 * time.Second)
	if count != 5 {
		t.Errorf("ran %d events, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now = %v", s.Now())
	}
	if s.Pending() != 5 {
		t.Errorf("Pending = %d", s.Pending())
	}
	s.Run()
	if count != 10 {
		t.Errorf("total = %d", count)
	}
}

// echoFabric answers every probe with the probe bytes themselves after a
// fixed delay, optionally duplicated.
type echoFabric struct {
	delay time.Duration
	count int
}

func (f *echoFabric) Respond(from ipaddr.Addr, at Time, pkt []byte) []Delivery {
	return []Delivery{{Delay: f.delay, Data: pkt, Count: f.count}}
}

func TestNetworkDeliveryTiming(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, &echoFabric{delay: 250 * time.Millisecond})
	src := ipaddr.MustParse("240.0.0.1")
	var deliveredAt Time
	var deliveredCount int
	n.AttachProber(src, func(at Time, data []byte, count int) {
		deliveredAt = at
		deliveredCount = count
	})
	s.At(time.Second, func() { n.Send(src, []byte{1, 2, 3}) })
	s.Run()
	if deliveredAt != time.Second+250*time.Millisecond {
		t.Errorf("delivered at %v", deliveredAt)
	}
	if deliveredCount != 1 {
		t.Errorf("count = %d (zero Count must normalize to 1)", deliveredCount)
	}
	if n.Stats.ProbesSent != 1 || n.Stats.PacketsReceived != 1 {
		t.Errorf("stats = %+v", n.Stats)
	}
}

func TestNetworkBatchCount(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, &echoFabric{delay: time.Millisecond, count: 1000})
	src := ipaddr.MustParse("240.0.0.1")
	total := 0
	n.AttachProber(src, func(at Time, data []byte, count int) { total += count })
	s.At(0, func() { n.Send(src, []byte{1}) })
	s.Run()
	if total != 1000 {
		t.Errorf("batched count = %d", total)
	}
	if n.Stats.PacketsReceived != 1000 {
		t.Errorf("PacketsReceived = %d", n.Stats.PacketsReceived)
	}
}

func TestNetworkSendFromUnattachedPanics(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, &echoFabric{})
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	n.Send(ipaddr.MustParse("240.0.0.9"), nil)
}

func TestNetworkDoubleAttachPanics(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, &echoFabric{})
	src := ipaddr.MustParse("240.0.0.1")
	n.AttachProber(src, func(Time, []byte, int) {})
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	n.AttachProber(src, func(Time, []byte, int) {})
}

func TestNetworkDetachReattach(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, &echoFabric{})
	src := ipaddr.MustParse("240.0.0.1")
	n.AttachProber(src, func(Time, []byte, int) {})
	n.DetachProber(src)
	n.AttachProber(src, func(Time, []byte, int) {}) // must not panic
}

// Property: arbitrary event schedules drain in nondecreasing time order and
// run every event exactly once.
func TestSchedulerDrainOrderProperty(t *testing.T) {
	f := func(offsets []uint32) bool {
		var s Scheduler
		var fired []Time
		for _, o := range offsets {
			at := Time(o % 1e6)
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
