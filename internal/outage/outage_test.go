package outage

import (
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
	"timeouts/internal/wire"
)

// slowFabric answers echo probes with a fixed delay; used to assert timeout
// semantics precisely.
type slowFabric struct {
	delay time.Duration
}

func (f *slowFabric) Respond(from ipaddr.Addr, at simnet.Time, pkt []byte) []simnet.Delivery {
	p, err := wire.Decode(pkt)
	if err != nil || p.Echo == nil {
		return nil
	}
	reply := wire.EncodeEcho(p.IP.Dst, p.IP.Src, p.Echo.Reply())
	return []simnet.Delivery{{Delay: f.delay, Data: reply}}
}

// silentFabric never answers.
type silentFabric struct{}

func (silentFabric) Respond(ipaddr.Addr, simnet.Time, []byte) []simnet.Delivery { return nil }

func monitorOne(t *testing.T, fabric simnet.Fabric, timeout time.Duration, retries, rounds int) HostReport {
	t.Helper()
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, fabric)
	cfg := HostMonitorConfig{
		Src:     ipaddr.MustParse("240.0.4.1"),
		Timeout: timeout, Retries: retries, Rounds: rounds,
		Interval: time.Minute, RetrySpacing: timeout,
	}
	reps := MonitorHosts(net, cfg, []ipaddr.Addr{ipaddr.MustParse("1.2.3.4")})
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	return reps[0]
}

// TestPingReportsRTT pins the prober's reply callback to the round-trip
// time, not the arrival time: a probe sent an hour into the run through a
// 200 ms fabric reports 200 ms.
func TestPingReportsRTT(t *testing.T) {
	sched := &simnet.Scheduler{}
	pr := newProber(simnet.NewNetwork(sched, &slowFabric{delay: 200 * time.Millisecond}), ipaddr.MustParse("240.0.4.1"))
	defer pr.close()
	var got time.Duration
	replies := 0
	sched.At(time.Hour, func() {
		pr.ping(ipaddr.MustParse("1.2.3.4"), 1, 3*time.Second,
			func(rtt time.Duration) { got = rtt; replies++ },
			func() { t.Error("ping timed out") })
	})
	sched.Run()
	if replies != 1 || got != 200*time.Millisecond {
		t.Errorf("onReply got %v (%d replies), want 200ms once", got, replies)
	}
}

func TestMonitorHealthyHostNoLoss(t *testing.T) {
	rep := monitorOne(t, &slowFabric{delay: 100 * time.Millisecond}, 3*time.Second, 3, 5)
	if rep.Losses != 0 || rep.DownRounds != 0 {
		t.Errorf("healthy host: %+v", rep)
	}
	if rep.Probes != 5 {
		t.Errorf("probes = %d, want one per round", rep.Probes)
	}
}

// TestMonitorSlowHostFalseLoss is the paper's thesis in one test: a host
// that always answers — just slowly — is all loss under a short timeout and
// clean under a long one.
func TestMonitorSlowHostFalseLoss(t *testing.T) {
	// 5-second responses against a 3-second timeout: every probe "lost",
	// every round "down".
	rep := monitorOne(t, &slowFabric{delay: 5 * time.Second}, 3*time.Second, 3, 4)
	if rep.Losses != rep.Probes {
		t.Errorf("want all probes lost, got %d/%d", rep.Losses, rep.Probes)
	}
	if rep.DownRounds != 4 {
		t.Errorf("down rounds = %d", rep.DownRounds)
	}
	if rep.Probes != 4*4 { // initial + 3 retries per round
		t.Errorf("probes = %d", rep.Probes)
	}
	if rep.FalseLossRate() != 1 {
		t.Errorf("false loss rate = %v", rep.FalseLossRate())
	}

	// The same host with a 60-second timeout: no loss at all.
	rep = monitorOne(t, &slowFabric{delay: 5 * time.Second}, 60*time.Second, 3, 4)
	if rep.Losses != 0 || rep.DownRounds != 0 {
		t.Errorf("long timeout still lossy: %+v", rep)
	}
}

func TestMonitorDeadHost(t *testing.T) {
	rep := monitorOne(t, silentFabric{}, time.Second, 2, 3)
	if rep.DownRounds != 3 {
		t.Errorf("down rounds = %d", rep.DownRounds)
	}
	if rep.Probes != 3*3 {
		t.Errorf("probes = %d", rep.Probes)
	}
}

func TestMonitorLateResponseIgnored(t *testing.T) {
	// A response arriving after the timeout is dropped by the detector —
	// the exact behavior whose cost the paper measures.
	rep := monitorOne(t, &slowFabric{delay: 1500 * time.Millisecond}, time.Second, 1, 2)
	if rep.Losses != rep.Probes || rep.Probes != 4 {
		t.Errorf("late responses should count as losses: %+v", rep)
	}
}

func TestMonitorBlocks(t *testing.T) {
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, &slowFabric{delay: 100 * time.Millisecond})
	blk := ipaddr.MustParse("9.9.9.0").Prefix()
	blocks := map[ipaddr.Prefix24][]ipaddr.Addr{
		blk: {blk.Addr(1), blk.Addr(2), blk.Addr(3)},
	}
	reps := MonitorBlocks(net, BlockMonitorConfig{
		Src: ipaddr.MustParse("240.0.4.1"), Timeout: time.Second, Rounds: 3,
	}, blocks)
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	if reps[0].Outages != 0 {
		t.Errorf("healthy block declared out: %+v", reps[0])
	}
	if reps[0].Probes != 3 { // first address answers each round
		t.Errorf("probes = %d", reps[0].Probes)
	}
}

func TestMonitorBlocksDeclareOutage(t *testing.T) {
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, silentFabric{})
	blk := ipaddr.MustParse("9.9.9.0").Prefix()
	blocks := map[ipaddr.Prefix24][]ipaddr.Addr{blk: {blk.Addr(1), blk.Addr(2)}}
	reps := MonitorBlocks(net, BlockMonitorConfig{
		Src: ipaddr.MustParse("240.0.4.1"), Timeout: 500 * time.Millisecond,
		AdaptiveProbes: 5, Rounds: 2,
	}, blocks)
	if reps[0].Outages != 2 {
		t.Errorf("outages = %d", reps[0].Outages)
	}
	if reps[0].Probes != 2*6 { // budget+1 probes per round
		t.Errorf("probes = %d", reps[0].Probes)
	}
}

func TestMonitorAgainstModelTimeoutSweep(t *testing.T) {
	// Integration: against the synthetic population, lengthening the
	// timeout must monotonically reduce false loss on slow hosts.
	pop := netmodel.New(netmodel.Config{Seed: 11, Blocks: 256})
	var slow []ipaddr.Addr
	for i := 0; i < pop.NumAddrs() && len(slow) < 60; i++ {
		pr := pop.Profile(pop.AddrAt(i))
		if pr.Responsive && pr.JoinTime == 0 && pr.Class == netmodel.ClassCellular {
			slow = append(slow, pr.Addr)
		}
	}
	if len(slow) < 20 {
		t.Skip("too few cellular hosts")
	}
	rate := func(timeout time.Duration) float64 {
		model := netmodel.NewModel(pop)
		src := ipaddr.MustParse("240.0.4.1")
		model.AddVantage(src, ipmeta.NorthAmerica)
		sched := &simnet.Scheduler{}
		net := simnet.NewNetwork(sched, model)
		reps := MonitorHosts(net, HostMonitorConfig{
			Src: src, Timeout: timeout, Retries: 2, Rounds: 4,
		}, slow)
		var probes, losses int
		for _, r := range reps {
			probes += r.Probes
			losses += r.Losses
		}
		return float64(losses) / float64(probes)
	}
	short := rate(1 * time.Second)
	long := rate(60 * time.Second)
	if short < long {
		t.Errorf("false loss: 1s timeout %.3f < 60s timeout %.3f", short, long)
	}
	if short < 0.2 {
		t.Errorf("1s timeout on cellular hosts should hurt badly, got %.3f", short)
	}
	if long > 0.15 {
		t.Errorf("60s timeout residual loss = %.3f", long)
	}
}
