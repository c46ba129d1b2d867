// Bounded-memory smoke test behind `make scale-check`: the rank-indexed
// prober, scanner and model state at internet-demonstration scale — a
// 2^24-address scan and a multi-million-address survey — must complete
// with the process heap under a fixed budget, and so must the report
// zmapscan builds of a 2^22-address scan. The budgets are deliberately
// generous multiples of the measured footprint (see README "Scaling to
// internet-size populations") so the gate only trips on a real complexity
// regression — per-address or per-response state creeping back in — not
// on allocator noise.
//
// The 2^24 scan and the survey stream their outputs (response callback,
// counting record sink), so their assertion covers the scan/survey/model
// state proper: O(shard-slice) state, no per-address maps. The report
// adds 8 bytes per responder and a tally per /24.
//
// Gated behind SCALE_CHECK=1 because the scan probes all 16.7M addresses
// (~10 s) — too heavy for the default `go test ./...` tier.
package timeouts

import (
	"os"
	"runtime"
	"testing"
	"time"

	"timeouts/internal/core"
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
	// peaks are ~15 MB for the scan, 2 MB of it the first-response bitset,
	// and ~11 MB for the survey (which, run after the scan, reads the
	// scan's mark); per-address state at 2^24 would cost hundreds of MB,
	// so 64 MB cleanly separates the two regimes.
	scaleCheckScanBudget   = 64 << 20
	scaleCheckSurveyBudget = 64 << 20

	// scaleCheckReportBlocks × 256 = 2^22 addresses, perfbench's scan.
	// Its report path measures 23–27 MB of HeapSys; keeping every response
	// and a first-response map, as that path did before, measured 83 MB.
	scaleCheckReportBlocks = 1 << 14
	scaleCheckReportBudget = 48 << 20
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
	counts, err := zmapper.RunShardedInto(cfg, 1, fabric, func(zmapper.Response) { responses++ })
	if err != nil {
		t.Fatal(err)
	}
	probes := counts.ProbesSent
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

// TestScaleCheckScanReport runs perfbench's scan workload — zmapscan
// -blocks 16384 at seed 42, 2^22 addresses — through RunSharded and both
// rankings, the path zmapscan takes. The report keeps 8 bytes per
// responder, a bit per probe and a tally per /24; keeping every response
// and a first-response map, as the report path once did, peaks far above
// the budget.
func TestScaleCheckScanReport(t *testing.T) {
	requireScaleCheck(t)
	pop := netmodel.New(netmodel.Config{Seed: 42, Blocks: scaleCheckReportBlocks})
	src := ipaddr.MustParse("240.0.2.1")
	cfg := zmapper.Config{
		Src: src, Continent: ipmeta.NorthAmerica,
		TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
		Duration: 90 * time.Minute, Seed: 1,
	}
	sc, err := zmapper.RunSharded(cfg, 1, func(int) simnet.Fabric {
		model := netmodel.NewModel(pop)
		model.AddVantage(src, ipmeta.NorthAmerica)
		return model
	})
	if err != nil {
		t.Fatal(err)
	}
	scans := []core.ScanTallies{sc.Turtles}
	ases := core.RankASes(scans, pop.DB(), core.Turtles, 10)
	continents := core.RankContinents(scans, pop.DB(), core.Turtles)
	responders := len(sc.RTTPercentiles())
	if responders == 0 || len(ases) == 0 || len(continents) == 0 {
		t.Fatalf("degenerate report: %d responders, %d AS rows, %d continent rows", responders, len(ases), len(continents))
	}
	if h := heapSys(); h > scaleCheckReportBudget {
		t.Fatalf("2^22-address scan report peak heap %d MB exceeds the %d MB budget",
			h>>20, int64(scaleCheckReportBudget)>>20)
	} else {
		t.Logf("2^22-address scan report: %d probes, %d responders, peak heap %d MB (budget %d MB)",
			sc.ProbesSent, responders, h>>20, int64(scaleCheckReportBudget)>>20)
	}
}
