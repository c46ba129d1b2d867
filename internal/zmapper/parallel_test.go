package zmapper

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
)

// testCatalog is a second, structurally different AS catalog: the
// equivalence guarantee must not depend on the composition of the default
// population, so the suite also runs against a small mixed catalog with
// every behavior class the sharded engine has to keep shard-local (cellular
// radio state, satellite clusters, congested broadband, datacenters).
func testCatalog() []netmodel.ASSpec {
	mk := func(asn uint32, owner string, typ ipmeta.AccessType, cont ipmeta.Continent) ipmeta.AS {
		return ipmeta.AS{ASN: asn, Owner: owner, Type: typ, Continent: cont}
	}
	return []netmodel.ASSpec{
		{AS: mk(64512, "TEST CELLULAR", ipmeta.Cellular, ipmeta.Asia),
			Weight: 3, CellularFrac: 0.95, CongestionLevel: 0.5, Responsiveness: 0.3},
		{AS: mk(64513, "TEST BROADBAND", ipmeta.Broadband, ipmeta.Europe),
			Weight: 4, CongestionLevel: 0.6, Responsiveness: 0.5},
		{AS: mk(64514, "TEST SATELLITE", ipmeta.Satellite, ipmeta.NorthAmerica),
			Weight: 1, Responsiveness: 0.4, SatBaseMS: 500, SatSpreadMS: 60, SatQueueCapMS: 200},
		{AS: mk(64515, "TEST DATACENTER", ipmeta.Datacenter, ipmeta.NorthAmerica),
			Weight: 2, Responsiveness: 0.9},
	}
}

// parallelCases is the shards x seeds x catalogs equivalence matrix shared
// by the zmap and survey suites. Shard count 7 does not divide the
// population evenly; 1 exercises the sharded code path itself.
var (
	parallelShards = []int{1, 2, 4, 7}
	parallelSeeds  = []uint64{5, 21, 99}
)

func parallelCatalogs() []struct {
	name    string
	blocks  int
	catalog []netmodel.ASSpec
} {
	return []struct {
		name    string
		blocks  int
		catalog []netmodel.ASSpec
	}{
		{name: "default", blocks: 64, catalog: nil},
		{name: "mixed4", blocks: 32, catalog: testCatalog()},
	}
}

func scanFabric(pop *netmodel.Population, src ipaddr.Addr) func(int) simnet.Fabric {
	return func(int) simnet.Fabric {
		model := netmodel.NewModel(pop)
		model.AddVantage(src, ipmeta.NorthAmerica)
		return model
	}
}

func TestRunShardedMatchesSequential(t *testing.T) {
	src := ipaddr.MustParse("240.0.2.1")
	for _, cat := range parallelCatalogs() {
		for _, seed := range parallelSeeds {
			t.Run(fmt.Sprintf("%s/seed%d", cat.name, seed), func(t *testing.T) {
				pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: cat.blocks, Catalog: cat.catalog})
				cfg := Config{
					Src: src, Continent: ipmeta.NorthAmerica,
					TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
					Duration: 10 * time.Minute, Seed: seed,
				}
				fabric := scanFabric(pop, src)

				seq, seqCounts := rawStream(t, cfg, 1, fabric)
				if len(seq) == 0 {
					t.Fatal("sequential scan saw no responses; equivalence check is vacuous")
				}
				report, err := Run(simnet.NewNetwork(&simnet.Scheduler{}, fabric(0)), cfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}

				for _, shards := range parallelShards {
					par, parCounts := rawStream(t, cfg, shards, fabric)
					if parCounts != seqCounts {
						t.Errorf("shards=%d: counters %+v, sequential %+v", shards, parCounts, seqCounts)
					}
					if len(par) != len(seq) {
						t.Fatalf("shards=%d: %d responses, sequential %d", shards, len(par), len(seq))
					}
					for i := range seq {
						if par[i] != seq[i] {
							t.Fatalf("shards=%d: response %d = %+v, sequential %+v", shards, i, par[i], seq[i])
						}
					}
					sharded, err := RunSharded(cfg, shards, fabric)
					if err != nil {
						t.Fatalf("RunSharded(%d): %v", shards, err)
					}
					if !reportsEqual(sharded, report) {
						t.Errorf("shards=%d: report differs from the sequential Run's", shards)
					}
				}
			})
		}
	}
}

// reportsEqual reports whether two scan reports hold the same counters,
// RTTs, tallies and broadcast findings.
func reportsEqual(a, b *Scan) bool {
	return a.Counters == b.Counters && slices.Equal(a.RTTPercentiles(), b.RTTPercentiles()) &&
		reflect.DeepEqual(a.Turtles, b.Turtles) && reflect.DeepEqual(a.Broadcast, b.Broadcast)
}

func TestRunShardedClampsShardCount(t *testing.T) {
	// More shards than targets must degrade gracefully, not spin up empty
	// schedulers or divide by zero.
	pop := netmodel.New(netmodel.Config{Seed: 3, Blocks: 32})
	n := 5 // probe only the first 5 addresses
	cfg := Config{
		Src: ipaddr.MustParse("240.0.2.1"), Continent: ipmeta.NorthAmerica,
		TargetN: n, TargetAt: pop.AddrAt, Duration: time.Second, Seed: 3,
	}
	sc, err := RunSharded(cfg, 64, scanFabric(pop, cfg.Src))
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	if sc.ProbesSent != uint64(n) {
		t.Errorf("sent %d probes for %d targets", sc.ProbesSent, n)
	}
}

func TestRunShardedRejectsEmptyTargets(t *testing.T) {
	if _, err := RunSharded(Config{}, 4, nil); err == nil {
		t.Error("empty scan accepted")
	}
}

func TestZeroDurationDefaultsToProbeGap(t *testing.T) {
	// A zero Duration selects the fixed default rate of one probe per
	// DefaultProbeGap (100 µs), i.e. Duration = TargetN * 100 µs.
	pop := netmodel.New(netmodel.Config{Seed: 7, Blocks: 32})
	cfg := Config{
		Src: ipaddr.MustParse("240.0.2.1"), Continent: ipmeta.NorthAmerica,
		TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt, Seed: 7,
	}
	model := netmodel.NewModel(pop)
	model.AddVantage(cfg.Src, ipmeta.NorthAmerica)
	sc, err := Run(simnet.NewNetwork(&simnet.Scheduler{}, model), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := time.Duration(pop.NumAddrs()) * DefaultProbeGap
	if sc.Cfg.Duration != want {
		t.Errorf("defaulted Duration = %v, want TargetN * %v = %v", sc.Cfg.Duration, DefaultProbeGap, want)
	}
	if sc.Cfg.Drain != DefaultDrain {
		t.Errorf("defaulted Drain = %v, want %v", sc.Cfg.Drain, DefaultDrain)
	}
	if sc.ProbesSent != uint64(pop.NumAddrs()) {
		t.Errorf("sent %d probes for %d targets", sc.ProbesSent, pop.NumAddrs())
	}
}
