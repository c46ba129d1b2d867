package core_test

import (
	"slices"
	"testing"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// TestResultViewsEqualOracle checks every way a Result is read — Range,
// Lookup, Len and the three quantile views — against the oracle matcher
// over a real survey dataset. Each view must hold, in ascending address
// order, exactly the addresses with at least one sample in that view, each
// with the quantiles of a copy of the oracle's samples; and computing the
// views must leave every address's Matched and Delayed in arrival order.
func TestResultViewsEqualOracle(t *testing.T) {
	pop := netmodel.New(netmodel.Config{Seed: 5, Blocks: 64, Catalog: mixedCatalog()})
	model := netmodel.NewModel(pop)
	model.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
	var mem survey.MemWriter
	cfg := survey.Config{Vantage: survey.VantageW, Blocks: pop.Blocks(), Cycles: 12, Seed: 5}
	if _, err := survey.Run(simnet.NewNetwork(&simnet.Scheduler{}, model), cfg, &mem); err != nil {
		t.Fatal(err)
	}
	res := core.Match(mem.Records, core.MatchOptionsForCycles(cfg.Cycles))
	want := oracleMatch(mem.Records, res.Opt)
	checkOracle(t, res, want, false)
	if res.Lookup(survey.VantageW.Addr) != nil {
		t.Error("Lookup found an address no record names")
	}

	addrs := make([]ipaddr.Addr, 0, len(want))
	for a := range want {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	oracleView := func(filtered, delayed bool) []core.AddrQuantiles {
		var out []core.AddrQuantiles
		for _, a := range addrs {
			w := want[a]
			if filtered && (w.broadcast || w.dup || w.errorSeen) {
				continue
			}
			samples := slices.Clone(w.matched)
			if delayed {
				samples = append(samples, w.delayed...)
			}
			if len(samples) > 0 {
				out = append(out, core.AddrQuantiles{Addr: a, Quantiles: stats.ComputeQuantiles(samples)})
			}
		}
		return out
	}
	views := []struct {
		name string
		got  []core.AddrQuantiles
		want []core.AddrQuantiles
	}{
		{"naive", res.AddressQuantiles(false), oracleView(false, true)},
		{"filtered", res.AddressQuantiles(true), oracleView(true, true)},
		{"survey-detected", res.SurveyDetectedQuantiles(), oracleView(false, false)},
	}
	for _, v := range views {
		if !slices.Equal(v.got, v.want) {
			t.Errorf("%s: %d vectors differ from the oracle's %d", v.name, len(v.got), len(v.want))
		}
	}
	// The views must differ, or the comparison above proves little.
	if n, f, s := len(views[0].want), len(views[1].want), len(views[2].want); f >= n || s >= n || n >= len(addrs) {
		t.Fatalf("degenerate dataset: %d addresses, %d naive, %d filtered, %d survey-detected", len(addrs), n, f, s)
	}
	if t1 := res.BuildTable1(); t1.NaivePackets == t1.SurveyPackets {
		t.Fatal("no delayed samples recovered; the check is vacuous")
	}
	// Arrival order survives (Figure 4 prints the first delayed samples):
	// checkOracle compares Matched and Delayed with the oracle's in order,
	// which proves it only if some address's samples arrived unsorted.
	unsortedMatched, unsortedDelayed := 0, 0
	for _, w := range want {
		if !slices.IsSorted(w.matched) {
			unsortedMatched++
		}
		if !slices.IsSorted(w.delayed) {
			unsortedDelayed++
		}
	}
	if unsortedMatched == 0 || unsortedDelayed == 0 {
		t.Fatalf("%d addresses with unsorted matched and %d with unsorted delayed samples; the order check is vacuous",
			unsortedMatched, unsortedDelayed)
	}
	checkOracle(t, res, want, false)
}
