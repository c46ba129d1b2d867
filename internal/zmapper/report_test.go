package zmapper

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/faults"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
)

// rawStream runs cfg through RunShardedInto and returns its raw response
// stream and counters.
func rawStream(t *testing.T, cfg Config, shards int, fabric func(int) simnet.Fabric) ([]Response, Counters) {
	t.Helper()
	var stream []Response
	counts, err := RunShardedInto(cfg, shards, fabric, func(r Response) { stream = append(stream, r) })
	if err != nil {
		t.Fatalf("RunShardedInto(%d): %v", shards, err)
	}
	return stream, counts
}

// oracleScan is the report computed the way the scanner computed it when
// it kept every response: a first-response map keyed by address, and
// broadcast findings from a pass over the whole list.
type oracleScan struct {
	self  map[ipaddr.Addr]time.Duration
	bcast BroadcastFindings
}

func oracleOf(stream []Response) oracleScan {
	o := oracleScan{
		self:  make(map[ipaddr.Addr]time.Duration),
		bcast: BroadcastFindings{Responders: make(map[ipaddr.Addr]int)},
	}
	seenDst := make(map[ipaddr.Addr]bool)
	for _, r := range stream {
		if r.Src == r.Dst {
			if _, seen := o.self[r.Src]; !seen {
				o.self[r.Src] = r.RTT
			}
			continue
		}
		if r.Src.Prefix() != r.Dst.Prefix() {
			continue
		}
		o.bcast.Responders[r.Src]++
		if !seenDst[r.Dst] {
			seenDst[r.Dst] = true
			o.bcast.ProbedBroadcast[r.Dst.LastOctet()]++
		}
	}
	return o
}

func (o oracleScan) sortedRTTs() []time.Duration {
	out := make([]time.Duration, 0, len(o.self))
	for _, rtt := range o.self {
		out = append(out, rtt)
	}
	slices.Sort(out)
	return out
}

// oracleRankASes is the Table 4/6 ranking over per-address RTT maps,
// looking every address up on its own.
func oracleRankASes(scans []map[ipaddr.Addr]time.Duration, db *ipmeta.DB, threshold time.Duration, n int) []core.ASRank {
	asInfo := make(map[uint32]ipmeta.AS)
	counts := make(map[uint32][]core.ScanCount)
	for si, scan := range scans {
		for a, rtt := range scan {
			as, ok := db.Lookup(a)
			if !ok {
				continue
			}
			if _, ok := asInfo[as.ASN]; !ok {
				asInfo[as.ASN] = as
				counts[as.ASN] = make([]core.ScanCount, len(scans))
			}
			sc := counts[as.ASN]
			sc[si].Probed++
			if rtt > threshold {
				sc[si].Count++
			}
		}
		asns := make([]uint32, 0, len(counts))
		for asn := range counts {
			asns = append(asns, asn)
		}
		sort.Slice(asns, func(i, j int) bool {
			ci, cj := counts[asns[i]][si].Count, counts[asns[j]][si].Count
			if ci != cj {
				return ci > cj
			}
			return asns[i] < asns[j]
		})
		for rank, asn := range asns {
			sc := counts[asn]
			sc[si].Rank = rank + 1
			if sc[si].Probed > 0 {
				sc[si].Pct = 100 * float64(sc[si].Count) / float64(sc[si].Probed)
			}
		}
	}
	out := make([]core.ASRank, 0, len(counts))
	for asn, sc := range counts {
		r := core.ASRank{AS: asInfo[asn], PerScan: sc}
		for _, c := range sc {
			r.Total += c.Count
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].AS.ASN < out[j].AS.ASN
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// oracleRankContinents is Table 5 over per-address RTT maps.
func oracleRankContinents(scans []map[ipaddr.Addr]time.Duration, db *ipmeta.DB, threshold time.Duration) []core.ContinentRank {
	rows := make([]core.ContinentRank, ipmeta.NumContinents)
	for c := range rows {
		rows[c].Continent = ipmeta.Continent(c)
		rows[c].PerScan = make([]core.ScanCount, len(scans))
	}
	for si, scan := range scans {
		for a, rtt := range scan {
			as, ok := db.Lookup(a)
			if !ok {
				continue
			}
			sc := &rows[as.Continent].PerScan[si]
			sc.Probed++
			if rtt > threshold {
				sc.Count++
			}
		}
		for c := range rows {
			sc := &rows[c].PerScan[si]
			if sc.Probed > 0 {
				sc.Pct = 100 * float64(sc.Count) / float64(sc.Probed)
			}
		}
	}
	for c := range rows {
		for _, sc := range rows[c].PerScan {
			rows[c].Total += sc.Count
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Total > rows[j].Total })
	return rows
}

// histSnap returns the named histogram of a registry's snapshot.
func histSnap(t *testing.T, reg *obs.Registry, name string) obs.HistSnap {
	t.Helper()
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("no %s histogram in the snapshot", name)
	return obs.HistSnap{}
}

// checkReport compares a scan report with the oracle over the same scan's
// raw stream, and its zmap.rtt_first_self histogram with one built from the
// report's RTTs.
func checkReport(t *testing.T, label string, sc *Scan, reg *obs.Registry, o oracleScan, counts Counters) {
	t.Helper()
	rtts := sc.RTTPercentiles()
	if !slices.Equal(rtts, o.sortedRTTs()) {
		t.Errorf("%s: %d RTTs differ from the oracle's %d", label, len(rtts), len(o.self))
	}
	want := core.ScanTallies{}
	for a, rtt := range o.self {
		want.Add(a, rtt)
	}
	if !reflect.DeepEqual(sc.Turtles, want) {
		t.Errorf("%s: per-/24 tallies differ from the oracle's", label)
	}
	if !reflect.DeepEqual(sc.Broadcast, o.bcast) {
		t.Errorf("%s: broadcast findings %d responders %v, oracle %d %v", label,
			len(sc.Broadcast.Responders), sc.Broadcast.ProbedBroadcast, len(o.bcast.Responders), o.bcast.ProbedBroadcast)
	}
	if sc.Counters != counts {
		t.Errorf("%s: counters %+v, raw stream's %+v", label, sc.Counters, counts)
	}
	h := obs.NewRegistry()
	for _, rtt := range rtts {
		h.Histogram("zmap.rtt_first_self").Observe(rtt)
	}
	if got, want := histSnap(t, reg, "zmap.rtt_first_self"), histSnap(t, h, "zmap.rtt_first_self"); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: zmap.rtt_first_self %+v, histogram of the report's RTTs %+v", label, got, want)
	}
}

// reportPlan is the wire-fault plan of the report test: corrupted packets
// the scanner must skip, and duplicate bursts, which arrive as one
// delivery and so as one response. "First" has more to decide on the
// model's duplicate responders, which answer one probe many times; the
// test checks that the scans contain some.
var reportPlan = &faults.Plan{
	Seed: 3,
	Wire: faults.WireConfig{CorruptRate: 0.05, DuplicateRate: 0.2, DuplicateMax: 3},
}

// TestScanReportMatchesOracle checks the scan report against the oracle
// over the raw response stream — RTTs, responder count, tallies,
// broadcast findings, counters and the first-self histogram — sequentially
// and at 1, 3 and 8 shards, then checks the Table 4, 5 and 6 rankings of
// the reports against the per-address rankings of the oracle's maps. It
// covers the default and a mixed catalog, two seeds, and runs with and
// without wire faults.
func TestScanReportMatchesOracle(t *testing.T) {
	src := ipaddr.MustParse("240.0.2.1")
	for _, cat := range parallelCatalogs() {
		for _, seed := range []uint64{42, 7} {
			for _, plan := range []*faults.Plan{nil, reportPlan} {
				name := fmt.Sprintf("%s/seed%d/faults=%t", cat.name, seed, plan != nil)
				t.Run(name, func(t *testing.T) {
					pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: cat.blocks, Catalog: cat.catalog})
					fabric := scanFabric(pop, src)
					var (
						tallies []core.ScanTallies
						maps    []map[ipaddr.Addr]time.Duration
						dups    bool
					)
					for i := 0; i < 3; i++ {
						cfg := Config{
							Src: src, Continent: ipmeta.NorthAmerica,
							TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
							Duration: 10 * time.Minute, Start: simnet.Time(i) * simnet.Time(50*time.Hour),
							Seed: seed + uint64(i), Faults: plan,
						}
						stream, counts := rawStream(t, cfg, 1, fabric)
						o := oracleOf(stream)
						if len(o.self) == 0 {
							t.Fatal("no responders; the check is vacuous")
						}
						if plan != nil && counts.CorruptPackets == 0 {
							t.Fatal("the fault plan corrupted nothing")
						}
						selfResponses := 0
						for _, r := range stream {
							if r.Src == r.Dst {
								selfResponses++
							}
						}
						dups = dups || selfResponses > len(o.self)

						rcfg := cfg
						rcfg.Obs = obs.NewRegistry()
						seq, err := Run(simnet.NewNetwork(&simnet.Scheduler{}, fabric(0)), rcfg)
						if err != nil {
							t.Fatalf("Run: %v", err)
						}
						checkReport(t, fmt.Sprintf("scan %d sequential", i), seq, rcfg.Obs, o, counts)
						for _, shards := range []int{1, 3, 8} {
							rcfg.Obs = obs.NewRegistry()
							par, err := RunSharded(rcfg, shards, fabric)
							if err != nil {
								t.Fatalf("RunSharded(%d): %v", shards, err)
							}
							checkReport(t, fmt.Sprintf("scan %d shards=%d", i, shards), par, rcfg.Obs, o, counts)
						}
						tallies = append(tallies, seq.Turtles)
						maps = append(maps, o.self)
					}
					if !dups {
						t.Error("no address answered itself twice; \"first\" went untested")
					}

					db := pop.DB()
					for _, n := range []int{10, 0} {
						if got, want := core.RankASes(tallies, db, core.Turtles, n), oracleRankASes(maps, db, core.TurtleThreshold, n); !reflect.DeepEqual(got, want) {
							t.Errorf("Table 4 (n=%d):\n%s\noracle:\n%s", n, core.FormatASRanks(got), core.FormatASRanks(want))
						}
						if got, want := core.RankASes(tallies, db, core.SleepyTurtles, n), oracleRankASes(maps, db, core.SleepyTurtleThreshold, n); !reflect.DeepEqual(got, want) {
							t.Errorf("Table 6 (n=%d):\n%s\noracle:\n%s", n, core.FormatASRanks(got), core.FormatASRanks(want))
						}
					}
					if got, want := core.RankContinents(tallies, db, core.Turtles), oracleRankContinents(maps, db, core.TurtleThreshold); !reflect.DeepEqual(got, want) {
						t.Errorf("Table 5:\n%s\noracle:\n%s", core.FormatContinentRanks(got), core.FormatContinentRanks(want))
					}
				})
			}
		}
	}
}
