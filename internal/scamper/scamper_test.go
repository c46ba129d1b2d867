package scamper

import (
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
	"timeouts/internal/wire"
)

// fixedFabric answers any probe from a fixed source with a matching reply
// after a constant delay, so RTT measurements can be asserted exactly.
type fixedFabric struct {
	delay time.Duration
	drop  map[int]bool // probe ordinal -> drop
	seen  int
}

func (f *fixedFabric) Respond(from ipaddr.Addr, at simnet.Time, pkt []byte) []simnet.Delivery {
	ord := f.seen
	f.seen++
	if f.drop[ord] {
		return nil
	}
	p, err := wire.Decode(pkt)
	if err != nil {
		return nil
	}
	var reply []byte
	switch {
	case p.Echo != nil:
		reply = wire.EncodeEcho(p.IP.Dst, p.IP.Src, p.Echo.Reply())
	case p.UDP != nil:
		quote := pkt[:wire.IPv4HeaderLen+8]
		reply = wire.EncodeICMPError(p.IP.Dst, p.IP.Src, &wire.ICMPError{
			Type: wire.ICMPTypeDstUnreachable, Code: wire.ICMPCodePortUnreachable,
			Original: append([]byte(nil), quote...),
		})
	case p.TCP != nil:
		reply = wire.EncodeTCPTTL(p.IP.Dst, p.IP.Src, p.TCP.RST(), 64)
	default:
		return nil
	}
	return []simnet.Delivery{{Delay: f.delay, Data: reply}}
}

func fixedWorld(delay time.Duration, drop map[int]bool) (*simnet.Scheduler, *Prober) {
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, &fixedFabric{delay: delay, drop: drop})
	pr := New(net, ipaddr.MustParse("240.0.3.1"))
	return sched, pr
}

func TestPingTrainRTTs(t *testing.T) {
	sched, pr := fixedWorld(120*time.Millisecond, nil)
	dst := ipaddr.MustParse("1.2.3.4")
	pr.SchedulePing(dst, ICMP, 0, 5, time.Second)
	sched.Run()
	rs := pr.ResultsFor(dst, ICMP)
	if len(rs) != 5 {
		t.Fatalf("results = %d", len(rs))
	}
	for i, r := range rs {
		if r.Seq != i {
			t.Errorf("seq %d at position %d", r.Seq, i)
		}
		if !r.Responded || r.RTT != 120*time.Millisecond {
			t.Errorf("probe %d: responded=%v rtt=%v", i, r.Responded, r.RTT)
		}
		if r.SentAt != simnet.Time(i)*simnet.Time(time.Second) {
			t.Errorf("probe %d sent at %v", i, r.SentAt)
		}
	}
}

func TestPingLossRecorded(t *testing.T) {
	sched, pr := fixedWorld(50*time.Millisecond, map[int]bool{1: true, 3: true})
	dst := ipaddr.MustParse("1.2.3.4")
	pr.SchedulePing(dst, ICMP, 0, 5, time.Second)
	sched.Run()
	rs := pr.ResultsFor(dst, ICMP)
	want := []bool{true, false, true, false, true}
	for i, r := range rs {
		if r.Responded != want[i] {
			t.Errorf("probe %d responded=%v", i, r.Responded)
		}
	}
}

func TestUDPMatchingViaQuote(t *testing.T) {
	sched, pr := fixedWorld(80*time.Millisecond, nil)
	dst := ipaddr.MustParse("5.6.7.8")
	pr.SchedulePing(dst, UDP, 0, 3, time.Second)
	sched.Run()
	rs := pr.ResultsFor(dst, UDP)
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	for i, r := range rs {
		if !r.Responded || r.RTT != 80*time.Millisecond {
			t.Errorf("udp probe %d: %+v", i, r)
		}
	}
}

func TestTCPMatchingViaRST(t *testing.T) {
	sched, pr := fixedWorld(90*time.Millisecond, nil)
	dst := ipaddr.MustParse("5.6.7.9")
	pr.SchedulePing(dst, TCP, 0, 3, time.Second)
	sched.Run()
	rs := pr.ResultsFor(dst, TCP)
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	for i, r := range rs {
		if !r.Responded || r.RTT != 90*time.Millisecond {
			t.Errorf("tcp probe %d: %+v", i, r)
		}
		if r.ReplyTTL != 64 {
			t.Errorf("tcp reply TTL = %d", r.ReplyTTL)
		}
	}
}

func TestConcurrentTrainsToDistinctHosts(t *testing.T) {
	sched, pr := fixedWorld(10*time.Millisecond, nil)
	a := ipaddr.MustParse("1.0.0.1")
	b := ipaddr.MustParse("1.0.0.2")
	pr.SchedulePing(a, ICMP, 0, 4, 100*time.Millisecond)
	pr.SchedulePing(b, ICMP, 0, 4, 100*time.Millisecond)
	sched.Run()
	if len(pr.ResultsFor(a, ICMP)) != 4 || len(pr.ResultsFor(b, ICMP)) != 4 {
		t.Error("interleaved trains lost probes")
	}
	for _, r := range pr.Results() {
		if !r.Responded {
			t.Errorf("unanswered: %+v", r)
		}
	}
}

func TestResultsOrdering(t *testing.T) {
	sched, pr := fixedWorld(time.Millisecond, nil)
	a := ipaddr.MustParse("2.0.0.2")
	b := ipaddr.MustParse("1.0.0.1")
	pr.SchedulePing(a, UDP, 0, 2, time.Second)
	pr.SchedulePing(b, ICMP, time.Second, 2, time.Second)
	sched.Run()
	rs := pr.Results()
	if len(rs) != 4 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[0].Dst != b || rs[2].Dst != a {
		t.Errorf("results not ordered by destination: %+v", rs)
	}
}

func TestLateResponseStillMatches(t *testing.T) {
	// The "indefinite timeout": a response arriving minutes later is
	// matched as long as the scheduler still runs.
	sched, pr := fixedWorld(200*time.Second, nil)
	dst := ipaddr.MustParse("9.9.9.9")
	pr.SchedulePing(dst, ICMP, 0, 1, time.Second)
	sched.Run()
	rs := pr.ResultsFor(dst, ICMP)
	if len(rs) != 1 || !rs[0].Responded || rs[0].RTT != 200*time.Second {
		t.Errorf("late response not matched: %+v", rs)
	}
}

func TestAgainstNetmodelFirewallTTL(t *testing.T) {
	// Integration: TCP probes into a firewalled block carry the firewall's
	// distinctive TTL.
	pop := netmodel.New(netmodel.Config{Seed: 7, Blocks: 512})
	var fwBlock ipaddr.Prefix24
	found := false
	for _, b := range pop.Blocks() {
		if pop.BlockProfile(b).FirewallTCPRST {
			fwBlock, found = b, true
			break
		}
	}
	if !found {
		t.Skip("no firewalled block")
	}
	model := netmodel.NewModel(pop)
	src := ipaddr.MustParse("240.0.3.1")
	model.AddVantage(src, ipmeta.NorthAmerica)
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, model)
	pr := New(net, src)
	dst := fwBlock.Addr(33)
	pr.SchedulePing(dst, TCP, 0, 3, time.Second)
	sched.Run()
	rs := pr.ResultsFor(dst, TCP)
	want := pop.FirewallTTL(ipmeta.NorthAmerica, fwBlock)
	for _, r := range rs {
		if !r.Responded {
			t.Fatal("firewall did not answer")
		}
		if r.ReplyTTL != want {
			t.Errorf("firewall TTL = %d, want the block's edge TTL %d", r.ReplyTTL, want)
		}
		if r.RTT > time.Second {
			t.Errorf("firewall RST slow: %v", r.RTT)
		}
	}
}
