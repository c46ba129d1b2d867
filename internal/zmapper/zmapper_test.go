package zmapper

import (
	"testing"
	"testing/quick"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
)

func TestPermutationIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		p := NewPermutation(n, seed)
		seen := make([]bool, n)
		count := 0
		for {
			v, ok := p.Next()
			if !ok {
				break
			}
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
			count++
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPermutationExhaustsOnce(t *testing.T) {
	p := NewPermutation(10, 1)
	for i := 0; i < 10; i++ {
		if _, ok := p.Next(); !ok {
			t.Fatal("exhausted early")
		}
	}
	if _, ok := p.Next(); ok {
		t.Error("permutation repeated")
	}
	if _, ok := p.Next(); ok {
		t.Error("permutation restarted after done")
	}
}

func TestPermutationIsShuffled(t *testing.T) {
	p := NewPermutation(1000, 99)
	inOrder := 0
	prev := -1
	for {
		v, ok := p.Next()
		if !ok {
			break
		}
		if v == prev+1 {
			inOrder++
		}
		prev = v
	}
	if inOrder > 100 {
		t.Errorf("%d of 1000 elements in sequential order; not shuffled", inOrder)
	}
}

func TestPermutationDiffersBySeed(t *testing.T) {
	p1 := NewPermutation(100, 1)
	p2 := NewPermutation(100, 2)
	same := 0
	for i := 0; i < 100; i++ {
		a, _ := p1.Next()
		b, _ := p2.Next()
		if a == b {
			same++
		}
	}
	if same > 30 {
		t.Errorf("permutations with different seeds agree on %d/100 positions", same)
	}
}

// scanWorldConfig is a 10-minute scan of a default-catalog population.
func scanWorldConfig(blocks int, seed uint64) (*netmodel.Population, Config, func(int) simnet.Fabric) {
	pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: blocks})
	src := ipaddr.MustParse("240.0.2.1")
	cfg := Config{
		Src:       src,
		Continent: ipmeta.NorthAmerica,
		TargetN:   pop.NumAddrs(),
		TargetAt:  pop.AddrAt,
		Duration:  10 * time.Minute,
		Seed:      seed,
	}
	return pop, cfg, scanFabric(pop, src)
}

func scanWorld(t *testing.T, blocks int, seed uint64) (*netmodel.Population, *Scan) {
	t.Helper()
	pop, cfg, fabric := scanWorldConfig(blocks, seed)
	sc, err := Run(simnet.NewNetwork(&simnet.Scheduler{}, fabric(0)), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return pop, sc
}

func TestScanProbesEveryTarget(t *testing.T) {
	pop, sc := scanWorld(t, 64, 21)
	if sc.ProbesSent != uint64(pop.NumAddrs()) {
		t.Errorf("sent %d probes for %d targets", sc.ProbesSent, pop.NumAddrs())
	}
}

func TestScanFirstResponsesMatchResponsiveness(t *testing.T) {
	pop, cfg, fabric := scanWorldConfig(64, 21)
	stream, _ := rawStream(t, cfg, 1, fabric)
	self := oracleOf(stream).self
	if len(self) == 0 {
		t.Fatal("no responders")
	}
	// Every self responder must be a responsive address of the population.
	for a, rtt := range self {
		pr := pop.Profile(a)
		if !pr.Responsive {
			t.Fatalf("unresponsive %s answered", a)
		}
		if rtt <= 0 {
			t.Fatalf("non-positive RTT %v", rtt)
		}
	}
	// And the responder count should be near the responsive population
	// minus loss and not-yet-joined devices.
	responsive := 0
	for i := 0; i < pop.NumAddrs(); i++ {
		pr := pop.Profile(pop.AddrAt(i))
		if pr.Responsive && pr.JoinTime == 0 {
			responsive++
		}
	}
	if len(self) < responsive*8/10 {
		t.Errorf("responders %d << responsive %d", len(self), responsive)
	}
}

func TestScanRTTsPositiveAndPlausible(t *testing.T) {
	_, sc := scanWorld(t, 64, 21)
	rtts := sc.RTTPercentiles()
	for i := 1; i < len(rtts); i++ {
		if rtts[i] < rtts[i-1] {
			t.Fatal("RTTPercentiles not sorted")
		}
	}
	med := rtts[len(rtts)/2]
	if med < 30*time.Millisecond || med > time.Second {
		t.Errorf("median scan RTT = %v", med)
	}
}

func TestScanBroadcastFindings(t *testing.T) {
	_, sc := scanWorld(t, 1024, 21)
	f := sc.Broadcast
	if len(f.Responders) == 0 {
		t.Skip("no broadcast responders at this seed/scale")
	}
	// Destinations that triggered cross-address responses must be at
	// broadcast-like last octets.
	for o := 0; o < 256; o++ {
		if f.ProbedBroadcast[o] > 0 && !ipaddr.BroadcastLikeOctet(byte(o)) {
			t.Errorf("cross-address trigger at non-broadcast octet %d", o)
		}
	}
}

func TestScanDeterministic(t *testing.T) {
	_, cfg, fabric := scanWorldConfig(32, 5)
	s1, c1 := rawStream(t, cfg, 1, fabric)
	s2, c2 := rawStream(t, cfg, 1, fabric)
	if c1 != c2 {
		t.Fatalf("counters differ: %+v vs %+v", c1, c2)
	}
	if len(s1) != len(s2) {
		t.Fatalf("response counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("response %d differs", i)
		}
	}
	_, r1 := scanWorld(t, 32, 5)
	_, r2 := scanWorld(t, 32, 5)
	if !reportsEqual(r1, r2) {
		t.Fatal("reports differ")
	}
}

func TestScanStability(t *testing.T) {
	// Two scans of the same population at different times see nearly the
	// same turtle set — the paper's Figure 7 stability result.
	pop := netmodel.New(netmodel.Config{Seed: 77, Blocks: 256})
	src := ipaddr.MustParse("240.0.2.1")
	runAt := func(start simnet.Time, scanSeed uint64) map[ipaddr.Addr]time.Duration {
		stream, _ := rawStream(t, Config{
			Src: src, Continent: ipmeta.NorthAmerica,
			TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
			Duration: 30 * time.Minute, Start: start, Seed: scanSeed,
		}, 1, scanFabric(pop, src))
		return oracleOf(stream).self
	}
	s1 := runAt(0, 1)
	s2 := runAt(simnet.Time(72*time.Hour), 2)
	turtle := func(m map[ipaddr.Addr]time.Duration) map[ipaddr.Addr]bool {
		out := map[ipaddr.Addr]bool{}
		for a, rtt := range m {
			if rtt > time.Second {
				out[a] = true
			}
		}
		return out
	}
	t1, t2 := turtle(s1), turtle(s2)
	if len(t1) == 0 {
		t.Fatal("no turtles")
	}
	both := 0
	for a := range t1 {
		if t2[a] {
			both++
		}
	}
	// The paper's stability claim is population-level (the turtle *share*
	// holds at ~5% in every scan) with substantial per-address persistence;
	// individual addresses do vary (Figure 8).
	share1 := float64(len(t1)) / float64(len(s1))
	share2 := float64(len(t2)) / float64(len(s2))
	if d := share1 - share2; d > 0.01 || d < -0.01 {
		t.Errorf("turtle share moved: %.3f vs %.3f", share1, share2)
	}
	overlap := float64(both) / float64(len(t1))
	if overlap < 0.55 {
		t.Errorf("turtle overlap across scans = %.2f, want most addresses persistent", overlap)
	}
}

func TestRunRejectsEmptyTargets(t *testing.T) {
	sched := &simnet.Scheduler{}
	pop := netmodel.New(netmodel.Config{Seed: 1, Blocks: 32})
	net := simnet.NewNetwork(sched, netmodel.NewModel(pop))
	if _, err := Run(net, Config{}); err == nil {
		t.Error("empty scan accepted")
	}
}
