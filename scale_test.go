// Bounded-memory smoke test behind `make scale-check`: the rank-indexed
// prober, scanner and model state at internet-demonstration scale — a
// 2^24-address scan and a multi-million-address survey — must complete
// with the process heap under a fixed budget. The budgets are deliberately generous multiples of
// the measured footprint (see README "Scaling to internet-size
// populations") so the gate only trips on a real complexity regression —
// per-address state creeping back in — not on allocator noise.
//
// The workloads stream their outputs (response callback, counting record
// sink), so the assertion covers the scan/survey/model state proper, which
// is the tentpole claim: O(shard-slice) state, no per-address maps.
//
// Gated behind SCALE_CHECK=1 because the scan probes all 16.7M addresses
// (~10 s) — too heavy for the default `go test ./...` tier.
package timeouts

import (
	"os"
	"runtime"
	"testing"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
	"timeouts/internal/survey"
	"timeouts/internal/zmapper"
)

const (
	// scaleCheckScanBlocks × 256 = 2^24 addresses.
	scaleCheckScanBlocks   = 1 << 16
	scaleCheckSurveyBlocks = 1 << 14 // 4,194,304 addresses

	// Heap budgets, in bytes. HeapSys is the high-water mark of memory
	// obtained from the OS for the heap across the whole process. Measured
	// peaks are ~11 MB for both workloads; per-address state at 2^24 would
	// cost hundreds of MB, so 64 MB cleanly separates the two regimes.
	scaleCheckScanBudget   = 64 << 20
	scaleCheckSurveyBudget = 64 << 20
)

func requireScaleCheck(t *testing.T) {
	t.Helper()
	if os.Getenv("SCALE_CHECK") == "" {
		t.Skip("set SCALE_CHECK=1 (make scale-check) to run the bounded-memory smoke test")
	}
}

func heapSys() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapSys
}

func TestScaleCheckScan(t *testing.T) {
	requireScaleCheck(t)
	pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: scaleCheckScanBlocks})
	src := ipaddr.MustParse("240.0.2.1")
	cfg := zmapper.Config{
		Src: src, Continent: ipmeta.NorthAmerica,
		TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
		Seed: 42,
	}
	fabric := func(int) simnet.Fabric {
		model := netmodel.NewModel(pop)
		model.AddVantage(src, ipmeta.NorthAmerica)
		return model
	}
	var responses uint64
	probes, _, err := zmapper.RunShardedInto(cfg, 1, fabric, func(zmapper.Response) { responses++ })
	if err != nil {
		t.Fatal(err)
	}
	if probes != uint64(pop.NumAddrs()) {
		t.Fatalf("sent %d probes, want %d", probes, pop.NumAddrs())
	}
	if responses == 0 {
		t.Fatal("no responses")
	}
	if h := heapSys(); h > scaleCheckScanBudget {
		t.Fatalf("2^24-address scan peak heap %d MB exceeds the %d MB budget",
			h>>20, int64(scaleCheckScanBudget)>>20)
	} else {
		t.Logf("2^24-address scan: %d probes, %d responses, peak heap %d MB (budget %d MB)",
			probes, responses, h>>20, int64(scaleCheckScanBudget)>>20)
	}
}

func TestScaleCheckSurvey(t *testing.T) {
	requireScaleCheck(t)
	pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: scaleCheckSurveyBlocks})
	model := netmodel.NewModel(pop)
	model.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
	net := simnet.NewNetwork(&simnet.Scheduler{}, model)
	var sink countRecords
	st, err := survey.Run(net, survey.Config{
		Vantage: survey.VantageW, Blocks: pop.Blocks(),
		Cycles: 1, Seed: 42,
	}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if st.Probes != uint64(pop.NumAddrs()) {
		t.Fatalf("sent %d probes, want %d", st.Probes, pop.NumAddrs())
	}
	if st.Matched == 0 || sink.n == 0 {
		t.Fatalf("degenerate survey: matched=%d records=%d", st.Matched, sink.n)
	}
	if h := heapSys(); h > scaleCheckSurveyBudget {
		t.Fatalf("%d-address survey peak heap %d MB exceeds the %d MB budget",
			pop.NumAddrs(), h>>20, int64(scaleCheckSurveyBudget)>>20)
	} else {
		t.Logf("%d-address survey: %d probes, %d matched, peak heap %d MB (budget %d MB)",
			pop.NumAddrs(), st.Probes, st.Matched, h>>20, int64(scaleCheckSurveyBudget)>>20)
	}
}
