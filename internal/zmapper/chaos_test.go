package zmapper

import (
	"strings"
	"testing"
	"time"

	"timeouts/internal/faults"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
)

// Chaos tests: deterministic fault injection through the scan engine. Run
// under -race by `make chaos`.

func chaosScanConfig(seed uint64, plan *faults.Plan) (Config, func(int) simnet.Fabric) {
	src := ipaddr.MustParse("240.0.2.9")
	pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: 32})
	cfg := Config{
		Src: src, Continent: ipmeta.NorthAmerica,
		TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
		Duration: 10 * time.Minute, Seed: seed, Faults: plan,
	}
	return cfg, scanFabric(pop, src)
}

// chaosRun is one scan's raw response stream and counters.
type chaosRun struct {
	Counters
	responses []Response
}

func chaosScan(t *testing.T, seed uint64, plan *faults.Plan, shards int) chaosRun {
	t.Helper()
	cfg, fabric := chaosScanConfig(seed, plan)
	var run chaosRun
	run.responses, run.Counters = rawStream(t, cfg, shards, fabric)
	return run
}

func chaosScansEqual(t *testing.T, label string, a, b chaosRun) {
	t.Helper()
	if a.Counters != b.Counters {
		t.Fatalf("%s: counters differ: %+v vs %+v", label, a.Counters, b.Counters)
	}
	if len(a.responses) != len(b.responses) {
		t.Fatalf("%s: %d responses vs %d", label, len(a.responses), len(b.responses))
	}
	for i := range a.responses {
		if a.responses[i] != b.responses[i] {
			t.Fatalf("%s: response %d differs: %+v vs %+v", label, i, a.responses[i], b.responses[i])
		}
	}
}

func chaosScanPlan(seed uint64) *faults.Plan {
	return &faults.Plan{
		Seed: seed,
		Wire: faults.WireConfig{CorruptRate: 0.04, TruncateRate: 0.02, DuplicateRate: 0.02, DuplicateMax: 3},
	}
}

// TestChaosScanFaultOffIdentical: a zero-rate plan must not perturb the scan.
func TestChaosScanFaultOffIdentical(t *testing.T) {
	base := chaosScan(t, 5, nil, 1)
	zero := chaosScan(t, 5, &faults.Plan{Seed: 42}, 1)
	chaosScansEqual(t, "zero-rate plan", base, zero)
	if base.CorruptPackets != 0 {
		t.Fatalf("fault-off scan counted %d corrupt packets", base.CorruptPackets)
	}
}

// TestChaosScanWireFaultsDeterministic: same fault seed, same faulted scan —
// sequential and sharded alike.
func TestChaosScanWireFaultsDeterministic(t *testing.T) {
	a := chaosScan(t, 5, chaosScanPlan(1), 1)
	b := chaosScan(t, 5, chaosScanPlan(1), 1)
	chaosScansEqual(t, "repeat run", a, b)
	if a.CorruptPackets == 0 {
		t.Fatal("fault plan injected no corrupt packets; test is vacuous")
	}
	base := chaosScan(t, 5, nil, 1)
	if len(a.responses) == len(base.responses) && a.CorruptPackets == 0 {
		t.Fatal("fault-on scan indistinguishable from fault-off scan")
	}
	for _, shards := range []int{2, 4} {
		chaosScansEqual(t, "sharded run", a, chaosScan(t, 5, chaosScanPlan(1), shards))
	}
}

// TestChaosScanShardPanicSurfacesError: injected worker panics surface as an
// error naming the shard.
func TestChaosScanShardPanicSurfacesError(t *testing.T) {
	plan := &faults.Plan{Seed: 9, Proc: faults.ProcConfig{ShardPanicRate: 1}}
	cfg, fabric := chaosScanConfig(5, plan)
	_, err := RunSharded(cfg, 3, fabric)
	if err == nil {
		t.Fatal("RunSharded returned nil error despite injected shard panics")
	}
	if !strings.Contains(err.Error(), "shard") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error does not name the panicking shard: %v", err)
	}
}
