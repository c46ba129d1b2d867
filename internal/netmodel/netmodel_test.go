package netmodel

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/simnet"
	"timeouts/internal/wire"
)

func testPop(blocks int) *Population {
	return New(Config{Seed: 7, Blocks: blocks})
}

func TestAllocationCoversExactly(t *testing.T) {
	for _, blocks := range []int{len(DefaultCatalog()), 100, 512, 1000} {
		p := New(Config{Seed: 1, Blocks: blocks})
		bs := p.Blocks()
		if len(bs) != blocks {
			t.Fatalf("blocks=%d: allocated %d", blocks, len(bs))
		}
		// Blocks must be contiguous from the base and each must resolve.
		for i, b := range bs {
			if int(b)-int(bs[0]) != i {
				t.Fatalf("non-contiguous allocation at %d", i)
			}
			if _, ok := p.DB().LookupPrefix(b); !ok {
				t.Fatalf("block %s not in DB", b)
			}
		}
	}
}

func TestAllocationMatchesDB(t *testing.T) {
	p := testPop(300)
	if p.DB().NumBlocks() != 300 {
		t.Errorf("DB blocks = %d", p.DB().NumBlocks())
	}
	if got := len(p.DB().ASes()); got != len(DefaultCatalog()) {
		t.Errorf("DB ASes = %d, want %d", got, len(DefaultCatalog()))
	}
}

func TestEveryASGetsABlock(t *testing.T) {
	p := New(Config{Seed: 1, Blocks: len(DefaultCatalog())})
	if got := len(p.DB().ASes()); got != len(DefaultCatalog()) {
		t.Errorf("with minimal blocks, ASes = %d", got)
	}
}

func TestTooFewBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(Config{Seed: 1, Blocks: 3})
}

// TestConfigValidate pins the check New panics on: the block count, after
// the zero default, must cover every AS of the catalog.
func TestConfigValidate(t *testing.T) {
	n := len(DefaultCatalog())
	for _, tc := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{}, true}, // DefaultBlocks
		{Config{Blocks: n}, true},
		{Config{Blocks: n - 1}, false},
		{Config{Blocks: 8}, false},
		{Config{Blocks: -1}, false},
		{Config{Blocks: 2, Catalog: DefaultCatalog()[:2]}, true},
		{Config{Blocks: 1, Catalog: DefaultCatalog()[:2]}, false},
	} {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Blocks %d, %d ASes: Validate = %v, want ok=%v", tc.cfg.Blocks, len(tc.cfg.Catalog), err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "cannot cover") {
			t.Errorf("Validate error %q does not name the problem", err)
		}
	}
}

func TestAddrAtIndexRoundtrip(t *testing.T) {
	p := testPop(64)
	f := func(iRaw uint16) bool {
		i := int(iRaw) % p.NumAddrs()
		a := p.AddrAt(i)
		return p.IndexOf(a) == i && p.Contains(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if p.Contains(p.AddrAt(p.NumAddrs())) {
		t.Error("address beyond population contained")
	}
}

func TestProfileDeterministic(t *testing.T) {
	p1 := testPop(128)
	p2 := testPop(128)
	for i := 0; i < 2000; i++ {
		a := p1.AddrAt(i * 13 % p1.NumAddrs())
		if p1.Profile(a) != p2.Profile(a) {
			t.Fatalf("profile of %s differs across identical populations", a)
		}
	}
}

func TestProfileChangesWithSeed(t *testing.T) {
	p1 := New(Config{Seed: 1, Blocks: 128})
	p2 := New(Config{Seed: 2, Blocks: 128})
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		a := p1.AddrAt(i)
		if p1.Profile(a).Responsive == p2.Profile(a).Responsive {
			same++
		}
	}
	if same > n-50 {
		t.Errorf("seeds produce nearly identical populations: %d/%d", same, n)
	}
}

func TestClassShares(t *testing.T) {
	p := testPop(512)
	counts := map[Class]int{}
	responsive := 0
	for i := 0; i < p.NumAddrs(); i++ {
		pr := p.Profile(p.AddrAt(i))
		if pr.Responsive {
			responsive++
			counts[pr.Class]++
		}
	}
	frac := func(c Class) float64 { return float64(counts[c]) / float64(responsive) }
	// The cellular share drives the paper's headline ~5% turtle share.
	if f := frac(ClassCellular); f < 0.03 || f > 0.12 {
		t.Errorf("cellular share = %.3f, want 3-12%%", f)
	}
	if f := frac(ClassSatellite); f > 0.06 {
		t.Errorf("satellite share = %.3f, want small", f)
	}
	if f := frac(ClassQuiet) + frac(ClassDSL); f < 0.5 {
		t.Errorf("wireline share = %.3f, want majority", f)
	}
	respRate := float64(responsive) / float64(p.NumAddrs())
	if respRate < 0.12 || respRate > 0.35 {
		t.Errorf("responsive rate = %.3f", respRate)
	}
}

func TestSpecialAddressesHostNoDevices(t *testing.T) {
	p := testPop(64)
	for _, b := range p.Blocks() {
		bp := p.BlockProfile(b)
		for _, o := range []byte{0, 255} {
			if !bp.IsSpecial(o) {
				t.Fatalf("octet %d must be special in every split", o)
			}
			if p.Profile(b.Addr(o)).Responsive {
				t.Fatalf("special address %s responsive", b.Addr(o))
			}
		}
	}
}

func TestBlockProfileSubnetGeometry(t *testing.T) {
	p := testPop(256)
	for _, b := range p.Blocks() {
		bp := p.BlockProfile(b)
		if bp.HostBits < 2 || bp.HostBits > 8 {
			t.Fatalf("HostBits = %d", bp.HostBits)
		}
		size := bp.SubnetSize()
		if size != 1<<bp.HostBits {
			t.Fatalf("SubnetSize = %d", size)
		}
		// Each subnet has exactly one broadcast and one network octet.
		nb, nn := 0, 0
		for o := 0; o < 256; o++ {
			if bp.IsBroadcast(byte(o)) {
				nb++
			}
			if bp.IsNetwork(byte(o)) {
				nn++
			}
		}
		want := 256 / size
		if nb != want || nn != want {
			t.Fatalf("HostBits=%d: %d broadcast, %d network octets, want %d", bp.HostBits, nb, nn, want)
		}
	}
}

func TestSubnetOf(t *testing.T) {
	bp := BlockProfile{HostBits: 6}
	if bp.SubnetOf(70) != 64 {
		t.Errorf("SubnetOf(70) = %d", bp.SubnetOf(70))
	}
	if !bp.IsBroadcast(127) || !bp.IsNetwork(128) {
		t.Error("subnet boundary octets misclassified")
	}
}

// worldFor builds a network over a population with a test vantage.
func worldFor(p *Population) (*Model, *simnet.Scheduler, *simnet.Network, ipaddr.Addr) {
	m := NewModel(p)
	src := ipaddr.MustParse("240.0.0.1")
	m.AddVantage(src, ipmeta.NorthAmerica)
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, m)
	return m, sched, net, src
}

// findAddr scans the population for an address matching pred.
func findAddr(p *Population, pred func(Profile) bool) (ipaddr.Addr, bool) {
	for i := 0; i < p.NumAddrs(); i++ {
		pr := p.Profile(p.AddrAt(i))
		if pred(pr) {
			return pr.Addr, true
		}
	}
	return 0, false
}

func TestEchoReplyEchoesIDSeqPayload(t *testing.T) {
	p := testPop(64)
	m, sched, net, src := worldFor(p)
	_ = m
	dst, ok := findAddr(p, func(pr Profile) bool {
		return pr.Responsive && pr.JoinTime == 0 && pr.Class == ClassQuiet && pr.DupCount == 0 && pr.LossRate < 0.01
	})
	if !ok {
		t.Skip("no quiet responsive host in population")
	}
	var reply *wire.Packet
	var rtt time.Duration
	net.AttachProber(src, func(at simnet.Time, data []byte, count int) {
		pkt, err := wire.Decode(data)
		if err != nil {
			t.Errorf("bad reply: %v", err)
			return
		}
		reply = pkt
		rtt = time.Duration(at)
	})
	echo := &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 0xCAFE, Seq: 42, Payload: []byte("payload")}
	sched.At(0, func() { net.Send(src, wire.EncodeEcho(src, dst, echo)) })
	sched.Run()
	if reply == nil {
		t.Fatal("no reply (unlucky loss draw?)")
	}
	if reply.Echo == nil || reply.Echo.Type != wire.ICMPTypeEchoReply {
		t.Fatalf("reply not an echo response: %+v", reply)
	}
	if reply.Echo.ID != 0xCAFE || reply.Echo.Seq != 42 || string(reply.Echo.Payload) != "payload" {
		t.Errorf("echo fields not mirrored: %+v", reply.Echo)
	}
	if reply.IP.Src != dst || reply.IP.Dst != src {
		t.Errorf("reply addressing wrong: %s -> %s", reply.IP.Src, reply.IP.Dst)
	}
	if rtt < 30*time.Millisecond || rtt > 5*time.Second {
		t.Errorf("quiet-host RTT = %v", rtt)
	}
}

func TestUDPGetsPortUnreachable(t *testing.T) {
	p := testPop(64)
	_, sched, net, src := worldFor(p)
	dst, ok := findAddr(p, func(pr Profile) bool {
		return pr.Responsive && pr.JoinTime == 0 && pr.Class == ClassQuiet && pr.LossRate < 0.01
	})
	if !ok {
		t.Skip("no candidate")
	}
	var got *wire.Packet
	net.AttachProber(src, func(at simnet.Time, data []byte, count int) {
		got, _ = wire.Decode(data)
	})
	u := &wire.UDP{SrcPort: 5000, DstPort: 33435, Payload: []byte{1}}
	sched.At(0, func() { net.Send(src, wire.EncodeUDP(src, dst, u)) })
	sched.Run()
	if got == nil || got.Err == nil {
		t.Fatalf("no ICMP error reply: %+v", got)
	}
	if got.Err.Type != wire.ICMPTypeDstUnreachable || got.Err.Code != wire.ICMPCodePortUnreachable {
		t.Errorf("wrong error type/code: %d/%d", got.Err.Type, got.Err.Code)
	}
	qh, l4, err := got.Err.Quoted()
	if err != nil || qh.Dst != dst || len(l4) < 8 {
		t.Errorf("quote wrong: %+v %d %v", qh, len(l4), err)
	}
}

func TestTCPGetsRST(t *testing.T) {
	p := testPop(64)
	_, sched, net, src := worldFor(p)
	dst, ok := findAddr(p, func(pr Profile) bool {
		if !pr.Responsive || pr.JoinTime != 0 || pr.Class != ClassQuiet || pr.LossRate >= 0.01 {
			return false
		}
		return !New(Config{Seed: 7, Blocks: 64}).BlockProfile(pr.Addr.Prefix()).FirewallTCPRST
	})
	if !ok {
		t.Skip("no candidate")
	}
	var got *wire.Packet
	net.AttachProber(src, func(at simnet.Time, data []byte, count int) {
		got, _ = wire.Decode(data)
	})
	probe := &wire.TCP{SrcPort: 7777, DstPort: 80, Ack: 0xABCD0001, Flags: wire.TCPFlagACK}
	sched.At(0, func() { net.Send(src, wire.EncodeTCP(src, dst, probe)) })
	sched.Run()
	if got == nil || got.TCP == nil {
		t.Fatalf("no TCP reply: %+v", got)
	}
	if got.TCP.Flags&wire.TCPFlagRST == 0 || got.TCP.Seq != 0xABCD0001 || got.TCP.DstPort != 7777 {
		t.Errorf("RST fields: %+v", got.TCP)
	}
	// Host replies carry an OS-stack TTL minus the path hops.
	want := p.ReplyTTL(ipmeta.NorthAmerica, dst)
	if got.IP.TTL != want {
		t.Errorf("host RST TTL = %d, want %d", got.IP.TTL, want)
	}
}

func TestFirewallRSTForWholeBlock(t *testing.T) {
	p := testPop(512)
	_, sched, net, src := worldFor(p)
	var fw ipaddr.Prefix24
	found := false
	for _, b := range p.Blocks() {
		if p.BlockProfile(b).FirewallTCPRST {
			fw, found = b, true
			break
		}
	}
	if !found {
		t.Skip("no firewalled block at this seed")
	}
	replies := 0
	ttls := map[byte]int{}
	var rtts []time.Duration
	net.AttachProber(src, func(at simnet.Time, data []byte, count int) {
		pkt, err := wire.Decode(data)
		if err != nil || pkt.TCP == nil {
			return
		}
		replies++
		ttls[pkt.IP.TTL]++
		rtts = append(rtts, time.Duration(at)-time.Duration(int(pkt.TCP.DstPort))*time.Second)
	})
	// Probe several addresses of the firewalled block, one second apart,
	// encoding the send second in the source port.
	for i := 1; i <= 20; i++ {
		i := i
		sched.At(simnet.Time(i)*time.Second, func() {
			probe := &wire.TCP{SrcPort: uint16(i), DstPort: 80, Ack: 1, Flags: wire.TCPFlagACK}
			net.Send(src, wire.EncodeTCP(src, fw.Addr(byte(i*7)), probe))
		})
	}
	sched.Run()
	if replies != 20 {
		t.Fatalf("firewall answered %d of 20", replies)
	}
	// The paper's firewall signature: one identical TTL for the whole /24.
	if len(ttls) != 1 {
		t.Errorf("firewall TTLs vary across the block: %v", ttls)
	}
	if want := p.FirewallTTL(ipmeta.NorthAmerica, fw); ttls[want] != 20 {
		t.Errorf("firewall TTL map = %v, want all %d", ttls, want)
	}
	for _, r := range rtts {
		if r < 50*time.Millisecond || r > 800*time.Millisecond {
			t.Errorf("firewall RST RTT = %v, want fast", r)
		}
	}
}

func TestBroadcastFanout(t *testing.T) {
	p := testPop(1024)
	_, sched, net, src := worldFor(p)
	// Find a broadcast-enabled /24 and its broadcast octet.
	var target ipaddr.Addr
	found := false
	for _, b := range p.Blocks() {
		bp := p.BlockProfile(b)
		if bp.BroadcastEnabled {
			target = b.Addr(255)
			found = true
			break
		}
	}
	if !found {
		t.Skip("no broadcast-enabled block at this seed")
	}
	var srcs []ipaddr.Addr
	net.AttachProber(src, func(at simnet.Time, data []byte, count int) {
		pkt, err := wire.Decode(data)
		if err == nil && pkt.Echo != nil {
			srcs = append(srcs, pkt.IP.Src)
		}
	})
	echo := &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 1, Seq: 1}
	sched.At(0, func() { net.Send(src, wire.EncodeEcho(src, target, echo)) })
	sched.Run()
	if len(srcs) == 0 {
		t.Fatal("broadcast ping drew no responses")
	}
	for _, s := range srcs {
		if s == target {
			t.Error("a response claimed the broadcast address as source")
		}
		if s.Prefix() != target.Prefix() {
			t.Errorf("responder %s outside the probed /24", s)
		}
	}
}

func TestBroadcastDisabledBlockIsSilent(t *testing.T) {
	p := testPop(512)
	_, sched, net, src := worldFor(p)
	var target ipaddr.Addr
	found := false
	for _, b := range p.Blocks() {
		bp := p.BlockProfile(b)
		if !bp.BroadcastEnabled && bp.HostBits == 8 {
			target = b.Addr(255)
			found = true
			break
		}
	}
	if !found {
		t.Skip("no such block")
	}
	got := 0
	net.AttachProber(src, func(simnet.Time, []byte, int) { got++ })
	echo := &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 1, Seq: 1}
	sched.At(0, func() { net.Send(src, wire.EncodeEcho(src, target, echo)) })
	sched.Run()
	if got != 0 {
		t.Errorf("disabled block produced %d responses", got)
	}
}

func TestDuplicateResponder(t *testing.T) {
	p := testPop(1024)
	_, sched, net, src := worldFor(p)
	dst, ok := findAddr(p, func(pr Profile) bool {
		return pr.Responsive && pr.JoinTime == 0 && pr.DupCount >= 2 && pr.DupCount <= 4 && pr.LossRate < 0.02
	})
	if !ok {
		t.Skip("no moderate duplicator at this seed")
	}
	want := p.Profile(dst).DupCount
	total := 0
	net.AttachProber(src, func(at simnet.Time, data []byte, count int) { total += count })
	// Several probes, spaced out: individual probes can be lost, but every
	// answered probe must draw exactly DupCount copies.
	for i := 0; i < 5; i++ {
		i := i
		sched.At(simnet.Time(i)*100*time.Second, func() {
			echo := &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 3, Seq: uint16(i)}
			net.Send(src, wire.EncodeEcho(src, dst, echo))
		})
	}
	sched.Run()
	if total == 0 || total%want != 0 {
		t.Errorf("duplicator delivered %d copies total, want a multiple of %d", total, want)
	}
}

func TestDoSResponderFloods(t *testing.T) {
	p := testPop(2048)
	_, sched, net, src := worldFor(p)
	dst, ok := findAddr(p, func(pr Profile) bool {
		return pr.Responsive && pr.JoinTime == 0 && pr.DupCount >= 1000 && pr.LossRate < 0.03
	})
	if !ok {
		t.Skip("no DoS responder at this seed")
	}
	want := p.Profile(dst).DupCount
	total := 0
	net.AttachProber(src, func(at simnet.Time, data []byte, count int) { total += count })
	echo := &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 3, Seq: 1}
	sched.At(0, func() { net.Send(src, wire.EncodeEcho(src, dst, echo)) })
	sched.Run()
	if total != want {
		t.Errorf("flood delivered %d copies, profile says %d", total, want)
	}
}

func TestWakeHoldStateMachine(t *testing.T) {
	p := testPop(256)
	m := NewModel(p)
	_, ok := findAddr(p, func(pr Profile) bool { return pr.Responsive && pr.Class == ClassCellular })
	if !ok {
		t.Skip("no cellular host")
	}
	// Use a synthetic profile so IdleTimeout is known exactly.
	pr := *p.hashed(&Profile{Addr: p.AddrAt(0), Class: ClassCellular, IdleTimeout: 30})

	// Find a first-probe time whose radio is asleep (not in the
	// already-awake band) and whose wake takes comfortably longer than the
	// probe spacing used below.
	base := 0.0
	for tCand := 1000.0; tCand < 50000; tCand += 100 {
		m.ResetRadioState()
		if m.wakeHold(&pr, tCand) > 2 {
			base = tCand
			break
		}
	}
	if base == 0 {
		t.Fatal("could not find an asleep start time")
	}
	m.ResetRadioState()
	h1 := m.wakeHold(&pr, base)
	if h1 < 0.3 || h1 > 55 {
		t.Fatalf("wake hold = %v", h1)
	}
	// A probe one second later is held until the same wake completion.
	h2 := m.wakeHold(&pr, base+1)
	if h2 > h1 {
		t.Errorf("second probe held longer: %v > %v", h2, h1)
	}
	if d := (h1 - 1) - h2; d > 1e-9 || d < -1e-9 {
		t.Errorf("hold difference = %v, want exactly the spacing", h1-1-h2)
	}
	// Shortly after the wake completes the radio is active: no hold.
	if h := m.wakeHold(&pr, base+h1+2); h != 0 {
		t.Errorf("active radio held probe for %v", h)
	}
	// After the idle timeout it may sleep again (unless the awake draw
	// says the device is busy). Each wakeHold call itself refreshes the
	// radio's activity, so reset state between attempts.
	rewake := false
	for k := 1; k <= 60; k++ {
		m.ResetRadioState()
		m.wakeHold(&pr, base)
		if m.wakeHold(&pr, base+h1+pr.IdleTimeout+float64(k)*9) > 0 {
			rewake = true
			break
		}
	}
	if !rewake {
		t.Error("radio never re-slept after idle")
	}
}

func TestSleepyEpisodesDeterministic(t *testing.T) {
	p := testPop(256)
	pr := Profile{Addr: p.AddrAt(5), Class: ClassCellular, Severity: 0.95}
	for t0 := 0.0; t0 < 20000; t0 += 13 {
		e1, ok1 := p.SleepyAt(&pr, t0)
		e2, ok2 := p.SleepyAt(&pr, t0)
		if ok1 != ok2 || e1 != e2 {
			t.Fatalf("sleepy decision at t=%v not deterministic", t0)
		}
	}
}

func TestSleepyBufferedDecays(t *testing.T) {
	// Within a buffered episode, delays decrease one-for-one with time:
	// all responses are released at the episode end.
	p := testPop(256)
	found := false
	for i := 0; i < p.NumAddrs() && !found; i++ {
		pr := p.Profile(p.AddrAt(i))
		if !pr.Responsive || pr.Class != ClassCellular || pr.Severity < 0.8 {
			continue
		}
		for t0 := 0.0; t0 < 86400 && !found; t0 += 5 {
			ev, in := p.SleepyAt(&pr, t0)
			if !in || ev.Mode != SleepyBuffered || ev.Lost || ev.Delay < 20 {
				continue
			}
			ev2, in2 := p.SleepyAt(&pr, t0+5)
			if !in2 || ev2.Mode != SleepyBuffered || ev2.Lost {
				continue
			}
			found = true
			drop := ev.Delay - ev2.Delay
			if drop < 4.8 || drop > 5.2 {
				t.Errorf("buffered delay dropped by %v over 5s, want ~5", drop)
			}
		}
	}
	if !found {
		t.Skip("no buffered episode pair found at this seed")
	}
}

func TestCongestionCorrelatedWithinEpisode(t *testing.T) {
	// Probes seconds apart during one congestion episode must see similar
	// delay — the §4.2 "retries are not independent" property.
	p := testPop(256)
	pr := Profile{Addr: p.AddrAt(99), Class: ClassCongested, Severity: 0.9, AS: ipmeta.AS{Continent: ipmeta.SouthAmerica}}
	big, violations := 0, 0
	for t0 := 0.0; t0 < 200000; t0 += 30 {
		d1 := p.CongestionDelayAt(&pr, 0.8, t0)
		if d1 < 3 {
			continue
		}
		big++
		d2 := p.CongestionDelayAt(&pr, 0.8, t0+3)
		if d2 < d1*0.15 {
			// A probe pair can straddle the episode's end; such pairs are
			// legitimately uncorrelated but must be the rare exception.
			violations++
		}
	}
	if big == 0 {
		t.Skip("no big congestion delay at this seed")
	}
	if frac := float64(violations) / float64(big); frac > 0.2 {
		t.Errorf("%.0f%% of retries after a slow probe were fast: retries look independent", 100*frac)
	}
}

func TestGatewayErrorForUnoccupiedAddress(t *testing.T) {
	p := testPop(512)
	_, sched, net, src := worldFor(p)
	dst, ok := findAddr(p, func(pr Profile) bool {
		return !pr.Responsive && pr.ICMPErrorResponder
	})
	if !ok {
		t.Skip("no error responder")
	}
	var got *wire.Packet
	net.AttachProber(src, func(at simnet.Time, data []byte, count int) {
		got, _ = wire.Decode(data)
	})
	echo := &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 5, Seq: 6}
	sched.At(0, func() { net.Send(src, wire.EncodeEcho(src, dst, echo)) })
	sched.Run()
	if got == nil || got.Err == nil {
		t.Fatal("no gateway error")
	}
	if got.IP.Src != dst.Prefix().Addr(1) {
		t.Errorf("error source = %s, want block gateway", got.IP.Src)
	}
	if qd, err := got.Err.QuotedDst(); err != nil || qd != dst {
		t.Errorf("quoted dst = %v, %v", qd, err)
	}
}

func TestUnregisteredVantagePanics(t *testing.T) {
	p := testPop(64)
	m := NewModel(p)
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	m.Respond(ipaddr.MustParse("9.9.9.9"), 0, nil)
}

func TestLateJoinersAppearOverTime(t *testing.T) {
	p := testPop(1024)
	m := NewModel(p)
	joiners := 0
	for i := 0; i < p.NumAddrs(); i++ {
		pr := p.Profile(p.AddrAt(i))
		if pr.Responsive && pr.JoinTime > 0 {
			joiners++
			if m.responsiveAt(&pr, pr.JoinTime-1) {
				t.Fatalf("joiner %s responsive before JoinTime", pr.Addr)
			}
			if !m.responsiveAt(&pr, pr.JoinTime+1) {
				t.Fatalf("joiner %s unresponsive after JoinTime", pr.Addr)
			}
		}
	}
	if joiners == 0 {
		t.Error("population has no late joiners")
	}
}

func TestPropagationSymmetric(t *testing.T) {
	for a := 0; a < ipmeta.NumContinents; a++ {
		for b := 0; b < ipmeta.NumContinents; b++ {
			x := PropagationRTT(ipmeta.Continent(a), ipmeta.Continent(b))
			y := PropagationRTT(ipmeta.Continent(b), ipmeta.Continent(a))
			if x != y {
				t.Errorf("propagation not symmetric: %v vs %v", x, y)
			}
			if a == b && x > 70*time.Millisecond {
				t.Errorf("intra-continent RTT = %v", x)
			}
		}
	}
}

func TestSatelliteProfileBase(t *testing.T) {
	p := testPop(512)
	n := 0
	for i := 0; i < p.NumAddrs(); i++ {
		pr := p.Profile(p.AddrAt(i))
		if pr.Class != ClassSatellite || !pr.Responsive {
			continue
		}
		n++
		if pr.SatBase < 0.5 || pr.SatBase > 1.1 {
			t.Errorf("satellite base = %v", pr.SatBase)
		}
		if pr.SatQueueCap <= 0 {
			t.Error("satellite queue cap missing")
		}
	}
	if n == 0 {
		t.Skip("no satellite hosts at this scale")
	}
}

func TestReplyTTLProperties(t *testing.T) {
	p := testPop(256)
	seen := map[byte]bool{}
	for i := 0; i < 4000; i++ {
		a := p.AddrAt(i * 17 % p.NumAddrs())
		ttl := p.ReplyTTL(ipmeta.NorthAmerica, a)
		if ttl < 1 {
			t.Fatalf("TTL %d out of range", ttl)
		}
		// Received TTL must sit below one of the initial values.
		if ttl > 255 {
			t.Fatalf("TTL %d exceeds any initial", ttl)
		}
		seen[ttl] = true
		// Deterministic.
		if p.ReplyTTL(ipmeta.NorthAmerica, a) != ttl {
			t.Fatal("ReplyTTL not deterministic")
		}
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct TTLs; hosts should vary", len(seen))
	}
}

func TestFirewallTTLConsistentPerBlock(t *testing.T) {
	p := testPop(256)
	for _, b := range p.Blocks()[:50] {
		ttl := p.FirewallTTL(ipmeta.NorthAmerica, b)
		if ttl != p.FirewallTTL(ipmeta.NorthAmerica, b) {
			t.Fatal("FirewallTTL not deterministic")
		}
		if ttl < 220 {
			t.Errorf("firewall TTL %d implausibly low for an edge router", ttl)
		}
	}
}

func TestHostTTLsVaryWithinBlock(t *testing.T) {
	// The property DetectFirewalls depends on: within a /24, host reply
	// TTLs vary (OS mix + hop jitter) while the firewall's is constant.
	p := testPop(512)
	varied := 0
	blocksChecked := 0
	for _, b := range p.Blocks() {
		ttls := map[byte]bool{}
		hosts := 0
		for o := 0; o < 256; o++ {
			pr := p.Profile(b.Addr(byte(o)))
			if pr.Responsive {
				ttls[p.ReplyTTL(ipmeta.NorthAmerica, pr.Addr)] = true
				hosts++
			}
		}
		if hosts >= 10 {
			blocksChecked++
			if len(ttls) > 1 {
				varied++
			}
		}
		if blocksChecked >= 60 {
			break
		}
	}
	if blocksChecked == 0 {
		t.Skip("no dense blocks")
	}
	if float64(varied) < 0.9*float64(blocksChecked) {
		t.Errorf("host TTLs uniform in %d of %d dense blocks", blocksChecked-varied, blocksChecked)
	}
}

func TestCatalogJSONRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, DefaultCatalog()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultCatalog()
	if len(got) != len(want) {
		t.Fatalf("entries = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: %+v != %+v", i, got[i], want[i])
		}
	}
	// A population built from the round-tripped catalog is identical.
	p1 := New(Config{Seed: 5, Blocks: 64, Catalog: want})
	p2 := New(Config{Seed: 5, Blocks: 64, Catalog: got})
	for i := 0; i < 2000; i++ {
		a := p1.AddrAt(i * 7 % p1.NumAddrs())
		if p1.Profile(a) != p2.Profile(a) {
			t.Fatalf("profiles diverge at %s", a)
		}
	}
}

func TestValidateCatalog(t *testing.T) {
	good := DefaultCatalog()
	if err := ValidateCatalog(good); err != nil {
		t.Fatalf("default catalog invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]ASSpec) []ASSpec
	}{
		{"empty", func(s []ASSpec) []ASSpec { return nil }},
		{"zero asn", func(s []ASSpec) []ASSpec { s[0].AS.ASN = 0; return s }},
		{"dup asn", func(s []ASSpec) []ASSpec { s[1].AS.ASN = s[0].AS.ASN; return s }},
		{"zero weight", func(s []ASSpec) []ASSpec { s[0].Weight = 0; return s }},
		{"bad cellfrac", func(s []ASSpec) []ASSpec { s[0].CellularFrac = 1.5; return s }},
		{"bad responsiveness", func(s []ASSpec) []ASSpec { s[0].Responsiveness = 0.95; return s }},
		{"negative sat", func(s []ASSpec) []ASSpec { s[0].SatBaseMS = -1; return s }},
	}
	for _, c := range cases {
		specs := c.mutate(DefaultCatalog())
		if err := ValidateCatalog(specs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestReadCatalogRejectsUnknownFields(t *testing.T) {
	if _, err := ReadCatalog(bytes.NewReader([]byte(`[{"AS":{"ASN":1},"Weight":1,"Bogus":true}]`))); err == nil {
		t.Error("unknown field accepted")
	}
}

// Property: the model never schedules a delivery with negative delay, and
// every delivery decodes as a valid wire packet addressed back to the
// vantage.
func TestModelDeliveriesWellFormed(t *testing.T) {
	p := testPop(128)
	m := NewModel(p)
	src := ipaddr.MustParse("240.0.0.1")
	m.AddVantage(src, ipmeta.NorthAmerica)
	f := func(idx uint32, tSec uint16, kind uint8) bool {
		dst := p.AddrAt(int(idx) % p.NumAddrs())
		at := simnet.Time(tSec) * simnet.Time(time.Second)
		var pkt []byte
		switch kind % 3 {
		case 0:
			pkt = wire.EncodeEcho(src, dst, &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 1, Seq: 2})
		case 1:
			pkt = wire.EncodeUDP(src, dst, &wire.UDP{SrcPort: 9, DstPort: 33435})
		default:
			pkt = wire.EncodeTCP(src, dst, &wire.TCP{SrcPort: 9, DstPort: 80, Flags: wire.TCPFlagACK})
		}
		for _, d := range m.Respond(src, at, pkt) {
			if d.Delay < 0 {
				return false
			}
			rp, err := wire.Decode(d.Data)
			if err != nil {
				return false
			}
			if rp.IP.Dst != src {
				return false
			}
			if d.Count < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSleepyModeShares(t *testing.T) {
	// The documented Table 7 calibration: buffered episodes are the most
	// common event class, sustained episodes are rare but long, blackouts
	// in between (see MODEL.md).
	p := testPop(256)
	counts := map[SleepyMode]int{}
	probes := map[SleepyMode]int{}
	hosts := 0
	for i := 0; i < p.NumAddrs() && hosts < 400; i++ {
		pr := p.Profile(p.AddrAt(i))
		if !pr.Responsive || pr.Class != ClassCellular || pr.Severity < 0.6 {
			continue
		}
		hosts++
		// Sample one probe per 2-hour window across a simulated week; the
		// mode of each distinct episode is counted once via its window.
		lastWindow := -1
		for w := 0; w < 7*12; w++ {
			tt := float64(w)*7200 + 3600
			if ev, in := p.SleepyAt(&pr, tt); in {
				probes[ev.Mode]++
				if w != lastWindow {
					counts[ev.Mode]++
					lastWindow = w
				}
			}
		}
	}
	total := counts[SleepyBuffered] + counts[SleepySustained] + counts[SleepyBlackout]
	if total < 50 {
		t.Skipf("only %d episodes sampled", total)
	}
	bufShare := float64(counts[SleepyBuffered]) / float64(total)
	susShare := float64(counts[SleepySustained]) / float64(total)
	// Sustained episodes are long, so single-sample-per-window hits them
	// disproportionately often; correct roughly by duration ratio is
	// overkill — just assert the ordering and bounds.
	if bufShare < 0.35 {
		t.Errorf("buffered share = %.2f, want dominant", bufShare)
	}
	if susShare > 0.45 {
		t.Errorf("sustained share = %.2f, want minority of episodes", susShare)
	}
}

// TestPerProbeDrawsDoNotAllocate pins the per-probe random draws to the
// stack: every generator is an xrand.Rand value, an episode's parameter
// stream included, so congestionDelay, sleepyAt, drawWake and Profile
// allocate nothing, inside an episode or out of one. Model.Respond on a
// responsive echo probe allocates exactly its reply buffer.
func TestPerProbeDrawsDoNotAllocate(t *testing.T) {
	p := testPop(64)
	var cell, dup, plain ipaddr.Addr
	for i := 0; i < p.NumAddrs() && (cell == 0 || dup == 0 || plain == 0); i++ {
		a := p.AddrAt(i)
		pr := p.Profile(a)
		if cell == 0 && pr.Responsive && pr.Class == ClassCellular && pr.Severity > 0.5 {
			cell = a
		}
		if dup == 0 && pr.DupCount >= 2 {
			dup = a
		}
		if plain == 0 && pr.Responsive && pr.JoinTime == 0 && pr.Class == ClassDSL && pr.DupCount == 0 {
			plain = a
		}
	}
	if cell == 0 || dup == 0 || plain == 0 {
		t.Fatalf("population lacks a cellular host (%v), a duplicating one (%v) or a plain one (%v)", cell, dup, plain)
	}
	pr := p.Profile(cell)
	const level = 0.5
	cp := p.congParamsFor(&pr, level)
	// Probe times outside and inside a congestion episode, and inside a
	// sleepy episode, searched over a simulated month.
	tOut, tCong, tSleepy := -1.0, -1.0, -1.0
	for tq := 1000.5; tq < 30*86400 && (tOut < 0 || tCong < 0 || tSleepy < 0); tq += 20 {
		if _, in := findEpisode(pr.h, saltCong, tq, congWindow, cp.prob, 60, 1800); in {
			if tCong < 0 {
				tCong = tq
			}
		} else if tOut < 0 {
			tOut = tq
		}
		if _, in := p.sleepyAt(&pr, tq); in && tSleepy < 0 {
			tSleepy = tq
		}
	}
	if tOut < 0 || tCong < 0 || tSleepy < 0 {
		t.Fatalf("no probe time outside (%v) or inside a congestion (%v) or sleepy (%v) episode", tOut, tCong, tSleepy)
	}

	var sink float64
	for name, f := range map[string]func(){
		"congestionDelay":             func() { sink += p.congestionDelay(&pr, level, tOut) },
		"congestionDelay(in episode)": func() { sink += p.congestionDelay(&pr, level, tCong) },
		"sleepyAt(in episode)":        func() { ev, _ := p.sleepyAt(&pr, tSleepy); sink += ev.delay + 1 },
		"drawWake":                    func() { sink += drawWake(pr.h, tOut) },
		"Profile(cellular)":           func() { q := p.Profile(cell); sink += q.AccessRTT },
		"Profile(duplicating)":        func() { q := p.Profile(dup); sink += float64(q.DupCount) },
	} {
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s allocated %.1f times per call, want 0", name, allocs)
		}
	}
	if sink == 0 {
		t.Fatal("draws returned nothing")
	}

	// The reply buffer must stay valid until the delivery is handled, so
	// it is the one allocation an answered probe makes.
	m := NewModel(p)
	src := ipaddr.MustParse("240.0.0.1")
	m.AddVantage(src, ipmeta.NorthAmerica)
	pkt := wire.EncodeEcho(src, plain, &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 1, Seq: 2})
	at := simnet.Time(0)
	for len(m.Respond(src, at, pkt)) != 1 {
		if at += simnet.Time(time.Second); at > simnet.Time(time.Hour) {
			t.Fatalf("%s never answered", plain)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { m.Respond(src, at, pkt) }); allocs != 1 {
		t.Errorf("Respond(responsive echo) allocated %.1f times per call, want 1 (the reply)", allocs)
	}
}
