package scamper

import (
	"testing"
	"time"

	"timeouts/internal/faults"
	"timeouts/internal/ipaddr"
	"timeouts/internal/simnet"
)

// TestChaosCorruptRepliesCountedAsLoss: under total wire corruption every
// reply arrives undecodable; the prober must count each one and keep probing
// — the train completes with every probe recorded as lost, not a crash.
func TestChaosCorruptRepliesCountedAsLoss(t *testing.T) {
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, &fixedFabric{delay: 40 * time.Millisecond})
	net.SetFaults(&faults.Plan{Seed: 2, Wire: faults.WireConfig{CorruptRate: 1}})
	pr := New(net, ipaddr.MustParse("240.0.3.1"))
	dst := ipaddr.MustParse("1.2.3.4")
	pr.SchedulePing(dst, ICMP, 0, 5, time.Second)
	sched.Run()

	if pr.DecodeErrors() != 5 {
		t.Fatalf("DecodeErrors = %d, want 5", pr.DecodeErrors())
	}
	rs := pr.ResultsFor(dst, ICMP)
	if len(rs) != 5 {
		t.Fatalf("results = %d, want 5", len(rs))
	}
	for i, r := range rs {
		if r.Responded {
			t.Errorf("probe %d matched a corrupted reply", i)
		}
	}
}

// TestChaosFaultOffProberUnchanged: a zero-rate plan must leave the prober's
// measurements untouched.
func TestChaosFaultOffProberUnchanged(t *testing.T) {
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, &fixedFabric{delay: 40 * time.Millisecond})
	net.SetFaults(&faults.Plan{Seed: 2})
	pr := New(net, ipaddr.MustParse("240.0.3.1"))
	dst := ipaddr.MustParse("1.2.3.4")
	pr.SchedulePing(dst, ICMP, 0, 3, time.Second)
	sched.Run()

	if pr.DecodeErrors() != 0 {
		t.Fatalf("DecodeErrors = %d under zero-rate plan", pr.DecodeErrors())
	}
	for i, r := range pr.ResultsFor(dst, ICMP) {
		if !r.Responded || r.RTT != 40*time.Millisecond {
			t.Errorf("probe %d: responded=%v rtt=%v", i, r.Responded, r.RTT)
		}
	}
}
