package core_test

import (
	"fmt"
	"testing"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/faults"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
	"timeouts/internal/survey"
)

// mixedCatalog is a four-AS catalog covering the access classes whose
// delays differ most: cellular, congested broadband, satellite, datacenter.
func mixedCatalog() []netmodel.ASSpec {
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

// TestMatchSurveyDatasetsEqualOracle surveys the shapes the survey package
// pins — the default and a mixed-catalog population, and the pathological
// configuration whose interval is shorter than its timeout — plus wire
// faults with duplicates, vantage-side response drop and a sharded run. On
// every dataset Match must flag no address out of emission order and equal
// the oracle field for field, sample order included: the order a survey
// writes is the order the matcher relies on.
func TestMatchSurveyDatasetsEqualOracle(t *testing.T) {
	type run struct {
		name    string
		blocks  int
		catalog []netmodel.ASSpec
		shards  int
		cfg     survey.Config
	}
	runs := []run{
		{name: "default", blocks: 64, cfg: survey.Config{Cycles: 8, Seed: 5}},
		{name: "mixed", blocks: 32, catalog: mixedCatalog(), cfg: survey.Config{Cycles: 8, Seed: 99}},
		{name: "pathological", blocks: 32, catalog: mixedCatalog(), cfg: survey.Config{
			Interval: 2 * time.Second, Timeout: 3 * time.Second, Sweep: 4 * time.Second, Cycles: 40, Seed: 7}},
		{name: "wire-faults", blocks: 32, cfg: survey.Config{Cycles: 8, Seed: 42, Faults: &faults.Plan{
			Seed: 99, Wire: faults.WireConfig{CorruptRate: 0.04, TruncateRate: 0.02, DuplicateRate: 0.05, DuplicateMax: 3}}}},
		{name: "response-drop", blocks: 32, cfg: survey.Config{Cycles: 8, Seed: 42, ResponseDropRate: 0.5}},
		{name: "shards4", blocks: 64, shards: 4, cfg: survey.Config{Cycles: 8, Seed: 1837}},
	}
	for _, v := range survey.Vantages[1:] {
		runs = append(runs, run{name: fmt.Sprintf("vantage-%c", v.Name), blocks: 32,
			cfg: survey.Config{Vantage: v, Cycles: 6, Seed: 42}})
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			pop := netmodel.New(netmodel.Config{Seed: r.cfg.Seed, Blocks: r.blocks, Catalog: r.catalog})
			cfg := r.cfg
			if cfg.Vantage.Addr == 0 {
				cfg.Vantage = survey.VantageW
			}
			cfg.Blocks = pop.Blocks()
			fabric := func(int) simnet.Fabric {
				model := netmodel.NewModel(pop)
				model.AddVantage(cfg.Vantage.Addr, cfg.Vantage.Continent)
				return model
			}
			var mem survey.MemWriter
			var err error
			if r.shards > 1 {
				_, err = survey.RunSharded(cfg, r.shards, fabric, &mem)
			} else {
				_, err = survey.Run(simnet.NewNetwork(&simnet.Scheduler{}, fabric(0)), cfg, &mem)
			}
			if err != nil {
				t.Fatal(err)
			}
			opt := core.MatchOptionsForCycles(cfg.Cycles)
			opt.Interval = cfg.Interval
			res := core.Match(mem.Records, opt)
			checkOracle(t, res, oracleMatch(mem.Records, res.Opt), false)
			if t1 := res.BuildTable1(); t1.NaivePackets == t1.SurveyPackets {
				t.Fatalf("no delayed samples recovered from %d records; the check is vacuous", len(mem.Records))
			}
		})
	}
}
