package outage

import (
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/simnet"
)

func triBlocks(pfx ipaddr.Prefix24, n int, availability float64) []TrinocularBlock {
	addrs := make([]ipaddr.Addr, n)
	for i := range addrs {
		addrs[i] = pfx.Addr(byte(10 + i))
	}
	return []TrinocularBlock{{Prefix: pfx, Addrs: addrs, Availability: availability}}
}

func TestTrinocularHealthyBlockStaysUp(t *testing.T) {
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, &slowFabric{delay: 100 * time.Millisecond})
	reps := MonitorTrinocular(net, TrinocularConfig{
		Src: ipaddr.MustParse("240.0.4.1"), Rounds: 4,
	}, triBlocks(ipaddr.MustParse("9.9.9.0").Prefix(), 5, 0.9))
	r := reps[0]
	if r.DownDecisions != 0 || r.Uncertain != 0 {
		t.Errorf("healthy block: %+v", r)
	}
	if r.FinalBelief < 0.9 {
		t.Errorf("belief = %v", r.FinalBelief)
	}
	if r.Probes != 4 {
		t.Errorf("probes = %d: a confident belief needs one probe per round", r.Probes)
	}
}

func TestTrinocularDeadBlockGoesDown(t *testing.T) {
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, silentFabric{})
	reps := MonitorTrinocular(net, TrinocularConfig{
		Src: ipaddr.MustParse("240.0.4.1"), Rounds: 3, Timeout: time.Second,
	}, triBlocks(ipaddr.MustParse("9.9.9.0").Prefix(), 5, 0.9))
	r := reps[0]
	if r.DownDecisions != 3 {
		t.Errorf("down decisions = %d", r.DownDecisions)
	}
	if r.FinalBelief > 0.1 {
		t.Errorf("belief = %v", r.FinalBelief)
	}
	// With availability 0.9, each timeout multiplies the odds by 0.1: the
	// belief crosses 0.1 within a couple of probes per round.
	if r.Probes > 3*4 {
		t.Errorf("probes = %d: high availability should decide quickly", r.Probes)
	}
}

func TestTrinocularSlowBlockFalseOutage(t *testing.T) {
	// The paper's point applied to Trinocular: a block of healthy hosts
	// answering in 5 s looks DOWN under the 3 s timeout...
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, &slowFabric{delay: 5 * time.Second})
	reps := MonitorTrinocular(net, TrinocularConfig{
		Src: ipaddr.MustParse("240.0.4.1"), Rounds: 3,
	}, triBlocks(ipaddr.MustParse("9.9.9.0").Prefix(), 5, 0.9))
	if reps[0].DownDecisions != 3 {
		t.Errorf("slow block under 3s timeout: %+v", reps[0])
	}
	// ...and perfectly healthy under a 60 s timeout.
	sched2 := &simnet.Scheduler{}
	net2 := simnet.NewNetwork(sched2, &slowFabric{delay: 5 * time.Second})
	reps2 := MonitorTrinocular(net2, TrinocularConfig{
		Src: ipaddr.MustParse("240.0.4.1"), Rounds: 3, Timeout: 60 * time.Second,
	}, triBlocks(ipaddr.MustParse("9.9.9.0").Prefix(), 5, 0.9))
	if reps2[0].DownDecisions != 0 {
		t.Errorf("slow block under 60s timeout: %+v", reps2[0])
	}
}

func TestTrinocularLowAvailabilityNeedsMoreProbes(t *testing.T) {
	// With availability 0.3 a timeout carries little signal: early rounds
	// leave the belief above the up-threshold (one probe each, correctly
	// Bayesian), and only after the belief erodes does adaptive probing
	// kick in and conclude the block is down.
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, silentFabric{})
	reps := MonitorTrinocular(net, TrinocularConfig{
		Src: ipaddr.MustParse("240.0.4.1"), Rounds: 4, Timeout: time.Second,
	}, triBlocks(ipaddr.MustParse("9.9.9.0").Prefix(), 5, 0.3))
	r := reps[0]
	if r.Probes <= r.Rounds {
		t.Errorf("probes = %d over %d rounds: adaptive probing never engaged", r.Probes, r.Rounds)
	}
	if r.DownDecisions == 0 {
		t.Errorf("dead block never declared down: %+v", r)
	}
	// Compare: a high-availability dead block is decided with far fewer
	// probes, because each timeout is strong evidence.
	sched2 := &simnet.Scheduler{}
	net2 := simnet.NewNetwork(sched2, silentFabric{})
	reps2 := MonitorTrinocular(net2, TrinocularConfig{
		Src: ipaddr.MustParse("240.0.4.1"), Rounds: 4, Timeout: time.Second,
	}, triBlocks(ipaddr.MustParse("9.9.9.0").Prefix(), 5, 0.95))
	if reps2[0].Probes >= r.Probes {
		t.Errorf("high availability (%d probes) should decide faster than low (%d)",
			reps2[0].Probes, r.Probes)
	}
}
