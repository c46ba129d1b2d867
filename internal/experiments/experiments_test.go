package experiments

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/netmodel"
	"timeouts/internal/stats"
	"timeouts/internal/zmapper"
)

// testLab is shared by the integration tests; Quick scale, memoized, so the
// survey and scans run once for the whole package.
var testLab = NewLab(Quick)

// mustQuantiles, mustMatch and mustScans unwrap the lab accessors' error
// returns for tests, where a workload failure is simply fatal.
func mustQuantiles(t *testing.T, l *Lab) []core.AddrQuantiles {
	t.Helper()
	q, err := l.Quantiles()
	if err != nil {
		t.Fatalf("Quantiles: %v", err)
	}
	return q
}

func mustMatch(t *testing.T, l *Lab) *core.Result {
	t.Helper()
	m, err := l.Match()
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	return m
}

func mustScans(t *testing.T, l *Lab, n int) []*zmapper.Scan {
	t.Helper()
	scans, err := l.Scans(n)
	if err != nil {
		t.Fatalf("Scans(%d): %v", n, err)
	}
	return scans
}

func TestHeadlineTimeoutMatrix(t *testing.T) {
	q := mustQuantiles(t, testLab)
	if len(q) < 5000 {
		t.Fatalf("only %d addresses with samples", len(q))
	}
	m := core.TimeoutMatrix(q)

	// The paper's headline: ~5% of pings from ~5% of addresses exceed 5s.
	d9595 := m.At(95, 95)
	if d9595 < 1500*time.Millisecond || d9595 > 15*time.Second {
		t.Errorf("95/95 timeout = %v, want the paper's ~5s ballpark", d9595)
	}
	frac := core.FracAddrsAbove(q, 95, 5*time.Second)
	if frac < 0.02 || frac > 0.10 {
		t.Errorf("addrs with >5%% of pings over 5s = %.3f, want ~5%%", frac)
	}
	// Latency is low for most hosts.
	if d := m.At(50, 50); d > 400*time.Millisecond {
		t.Errorf("50/50 timeout = %v, want ~0.2s", d)
	}
	// Monotone structure sanity.
	if m.At(99, 99) < m.At(95, 95) {
		t.Error("matrix rows not monotone")
	}
}

func TestZmapTurtleShareStable(t *testing.T) {
	scans := mustScans(t, testLab, 2)
	var shares []float64
	for _, sc := range scans {
		rtts := sc.RTTPercentiles()
		if len(rtts) == 0 {
			t.Fatal("scan saw no responders")
		}
		shares = append(shares, stats.FracAbove(rtts, time.Second))
		if med := stats.Percentile(rtts, 50); med > 300*time.Millisecond {
			t.Errorf("median scan RTT = %v, want <250ms-ish", med)
		}
	}
	for _, s := range shares {
		if s < 0.03 || s > 0.09 {
			t.Errorf("turtle share = %.3f, want ~5%%", s)
		}
	}
	if d := shares[0] - shares[1]; d > 0.01 || d < -0.01 {
		t.Errorf("turtle share unstable across scans: %v", shares)
	}
}

func TestTurtleASRankingIsCellular(t *testing.T) {
	turtles, err := testLab.turtleScans(2)
	if err != nil {
		t.Fatalf("turtleScans: %v", err)
	}
	rows := core.RankASes(turtles, testLab.DB(), core.Turtles, 10)
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].AS.ASN != 26599 {
		t.Errorf("top turtle AS = %d (%s), want 26599", rows[0].AS.ASN, rows[0].AS.Owner)
	}
	if share := core.CellularShare(rows); share < 0.6 {
		t.Errorf("cellular share of top-10 = %.2f", share)
	}
}

func TestBroadcastFilterAgainstZmapTruth(t *testing.T) {
	m := mustMatch(t, testLab)
	flagged := m.BroadcastResponders()
	if len(flagged) == 0 {
		t.Fatal("filter flagged nothing")
	}
	truth := mustScans(t, testLab, 1)[0].Broadcast.Responders
	if len(truth) == 0 {
		t.Fatal("Zmap found no broadcast responders")
	}
	hits := 0
	for _, a := range flagged {
		if truth[a] > 0 {
			hits++
		}
	}
	// Cross-validation (§3.3.1): what the survey filter flags should
	// almost all be confirmed by the Zmap ground truth.
	if prec := float64(hits) / float64(len(flagged)); prec < 0.9 {
		t.Errorf("filter precision vs Zmap = %.2f (%d/%d)", prec, hits, len(flagged))
	}
}

func TestFilteringRemovesFalseLatencyBumps(t *testing.T) {
	m := mustMatch(t, testLab)
	if len(m.AddressQuantiles(true)) >= len(m.AddressQuantiles(false)) {
		t.Error("filtering removed no addresses")
	}
	// Addresses dominated by half-interval false latencies must be gone.
	bad := 0
	m.Range(func(_ ipaddr.Addr, ar *core.AddressResult) {
		if ar.Discarded() {
			return
		}
		s := slices.Concat(ar.Matched, ar.Delayed)
		near := 0
		for _, d := range s {
			q := d % (330 * time.Second)
			if q > 165*time.Second {
				q = 330*time.Second - q
			}
			if d >= 100*time.Second && q <= 3*time.Second {
				near++
			}
		}
		if near*2 > len(s) && len(s) >= 4 {
			bad++
		}
	})
	if bad > 3 {
		t.Errorf("%d addresses with majority false-latency samples survived filtering", bad)
	}
}

func TestFirstPingExperimentShape(t *testing.T) {
	trains, _, err := testLab.firstPingTrains()
	if err != nil {
		t.Fatalf("firstPingTrains: %v", err)
	}
	if len(trains) < 50 {
		t.Skipf("only %d screened trains", len(trains))
	}
	fa := core.AnalyzeFirstPing(trains)
	frac := fa.FracAboveMax()
	if frac < 0.5 || frac > 0.9 {
		t.Errorf("first>max share = %.2f, want ~2/3", frac)
	}
	if len(fa.WakeEstimates) == 0 {
		t.Fatal("no wake estimates")
	}
	ws := append([]time.Duration(nil), fa.WakeEstimates...)
	stats.SortDurations(ws)
	med := stats.Percentile(ws, 50)
	if med < 700*time.Millisecond || med > 2500*time.Millisecond {
		t.Errorf("median wake = %v, want ~1.4s", med)
	}
	if p90 := stats.Percentile(ws, 90); p90 > 8*time.Second {
		t.Errorf("p90 wake = %v, want <~4s", p90)
	}
}

func TestSatelliteIsolation(t *testing.T) {
	pts := core.SatelliteScatter(mustQuantiles(t, testLab), testLab.DB(), 300*time.Millisecond)
	sum := core.SummarizeSatellites(pts)
	if sum.SatAddrs == 0 {
		t.Skip("no satellite addresses at this scale")
	}
	if sum.SatP1AboveHalf < 0.95 {
		t.Errorf("satellite P1>0.5s share = %.2f, want ~all", sum.SatP1AboveHalf)
	}
	if sum.SatP99Below3s < 0.8 {
		t.Errorf("satellite P99<3s share = %.2f, want predominant", sum.SatP99Below3s)
	}
}

func TestScanInventoryGrowth(t *testing.T) {
	// Later scans see at least as many responders as early ones (late
	// joiners), and the spread stays modest.
	scans := mustScans(t, testLab, 3)
	n0 := len(scans[0].RTTPercentiles())
	n2 := len(scans[2].RTTPercentiles())
	if n2 < n0 {
		t.Errorf("responders shrank: %d -> %d", n0, n2)
	}
	if float64(n2-n0)/float64(n2) > 0.2 {
		t.Errorf("responder growth too wild: %d -> %d", n0, n2)
	}
}

func TestWorldDeterminism(t *testing.T) {
	l1 := NewLab(Scale{Seed: 9, Blocks: 64, SurveyCycles: 2, ZmapScans: 1, SampleAddrs: 10, TrainPings: 10})
	l2 := NewLab(Scale{Seed: 9, Blocks: 64, SurveyCycles: 2, ZmapScans: 1, SampleAddrs: 10, TrainPings: 10})
	r1, s1, err1 := l1.Survey()
	r2, s2, err2 := l2.Survey()
	if err1 != nil || err2 != nil {
		t.Fatalf("survey failed: %v / %v", err1, err2)
	}
	if s1 != s2 || len(r1) != len(r2) {
		t.Fatal("labs with equal scales diverge")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7",
		"rec60", "outage", "abl-filter", "abl-dup",
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("registry missing %s", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find accepted a bogus id")
	}
}

func TestReportFormatting(t *testing.T) {
	r := Report{ID: "x", Title: "T", Body: "body\n", Metrics: []Metric{{"m", "1", "2"}}}
	s := r.Format()
	for _, frag := range []string{"== x: T ==", "body", "paper vs measured", "paper: 1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("format missing %q", frag)
		}
	}
}

// popProfileCounts counts the responsive addresses of l's population by
// class.
func popProfileCounts(l *Lab) map[netmodel.Class]int {
	pop := netmodel.New(l.popCfg)
	out := make(map[netmodel.Class]int)
	for i := 0; i < pop.NumAddrs(); i++ {
		pr := pop.Profile(pop.AddrAt(i))
		if pr.Responsive {
			out[pr.Class]++
		}
	}
	return out
}

func TestPopulationClassBalance(t *testing.T) {
	counts := popProfileCounts(testLab)
	total := 0
	for _, n := range counts {
		total += n
	}
	cell := float64(counts[netmodel.ClassCellular]) / float64(total)
	if cell < 0.03 || cell > 0.12 {
		t.Errorf("cellular responsive share = %.3f", cell)
	}
}

// registryGoldens are SHA-256 hashes of every registry experiment's
// Report.Format() at TestRegistryRunsEverything's 128-block scale, pinned
// from the map-backed state paths (per-address radio map, outstanding map,
// one scheduled event per scan probe, map StreamMatcher) before the dense
// paths became the only ones, and kept when the sort-and-match driver gave
// way to the record-order matcher. They cover the scamper, outage and Figure 9
// workloads, which build their own worlds on the radio table.
var registryGoldens = map[string]string{
	"fig1":        "4c522445cf999006bc625e5ab2490520539e789b71dc5d769cafc42130658fcb",
	"fig2":        "7ba08f4b1f90e0fd596446a6d66f6be57a428a97bc3ef88fe47faca1e53aa614",
	"fig3":        "c95a170e946f8cbec27e011b5d5323ac033a22b37994f2f5eed22b0f7c8368be",
	"fig4":        "ff1242f6330c4634866da4d5a828c932f2c5d3c55574ee8e569e4a8166ed4f71",
	"fig5":        "20653744713db28cb51ced5bf04df00cb8f2a2d7a4dc566c2f27993f17910da7",
	"tab1":        "01ecc94873a8081644ff5e64f702243e7c71507fa4614588c11910487b7c9d30",
	"fig6":        "18d133426f2808bce02266051eed8610a46e88bd766a31176358c7bcf6362642",
	"tab2":        "6b6c6f38abc1fdb1a8ae9fef54c02bb3f6683e8966a339202c3c0396e5d54c0b",
	"tab3":        "902baef857d4ea9aa67da627adb9d48fa2c4fe67203f9a734929903c0b206193",
	"fig7":        "b556d20d068d7c7c75a081b4d9e8dae274d4a68effcbbc159a282172b6d37af5",
	"fig8":        "c7509a3b3040028032e8be4d1831add4b00568b30ac096cbbdf54a611f7aab6a",
	"fig9":        "2ea60f6b8e41d1fcc0dc664d3e3532770c9f15685dbb284c220d955ae6bced4f",
	"fig10":       "d32e87f7156e04a76308f5f9c23bcfe8afbfbf20f78ecf385a4d95c950a01927",
	"fig11":       "6d2d5f39e82b11a6577ef62ffefab53fd5a7fe50a0e6fabe6e77c5297adc6e45",
	"tab4":        "c8fd3686f1ac22673a8573085c55c632512db4a1db4c0c91c24f5ccae1e312ba",
	"tab5":        "0158814e602d8778612811bb9b25ee57886f9eda13c15f1fcdf22b256abf9a47",
	"tab6":        "3c8a92d2148695cccce69997711a0d611c56f8106e9fa2ee75fe9c543012eb00",
	"fig12":       "9232f69cedb758949b8e65b2f8255493eb2b98ff81d3cd419d737a1df0894ab0",
	"fig13":       "88de020c8b12f4d6410dcd5407accba03b270b5504969e1da678fcaa7c1e730a",
	"fig14":       "c5549141ef9d0ddccc8bbc4081468820e70b8c43a9c3b65d6a88062b140598d0",
	"tab7":        "c7547ab3eefc72cc810773d8e49ce8784c5940dafac5f58cdb990176a60067c9",
	"rec60":       "5809955e0d738a3c8f20fadda799155c2a71538149245a2be3f5c4a6fe63a287",
	"outage":      "898458dfc7db5a23c3bfe39414579dfb013902d9f4d729d834a0c8a4b12f0919",
	"abl-filter":  "04811e4ebb4d8cf1eb70e297bd5023b555835ad86a2aeb784fbb60b6a4fbf981",
	"abl-dup":     "6e470671affc63f0a24f024a0e70183a4f6a28b5e7952335312db9ec10374a55",
	"abl-timeout": "06b49e7f454c6f112d36702dce845e9326fed6b850b73cb64cbec5d0ba508095",
	"abl-scale":   "bd4f172be477d1263b444680ce7836344a9c35a1058a1ddfc6cbf2452d5a2305",
	"abl-vantage": "db9d133a248961053370852ea34f80b23d08becf6ba84097fe8d537eaf2152e5",
}

// TestRegistryRunsEverything exercises every experiment at a tiny scale:
// each must produce a well-formed report without panicking, byte-identical
// to its pinned golden.
func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run skipped in -short mode")
	}
	tiny := NewLab(Scale{Seed: 42, Blocks: 128, SurveyCycles: 6, ZmapScans: 2, SampleAddrs: 40, TrainPings: 150})
	for _, e := range Registry {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(tiny)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rep.ID != e.ID {
				t.Errorf("report id %q != registry id %q", rep.ID, e.ID)
			}
			if rep.Title == "" || rep.Body == "" {
				t.Errorf("report %s missing title or body", e.ID)
			}
			if len(rep.Metrics) == 0 {
				t.Errorf("report %s has no paper-vs-measured metrics", e.ID)
			}
			for _, m := range rep.Metrics {
				if m.Name == "" || m.Paper == "" || m.Measured == "" {
					t.Errorf("report %s has an empty metric: %+v", e.ID, m)
				}
			}
			s := rep.Format()
			if len(s) < 40 {
				t.Errorf("report %s formats to %d bytes", e.ID, len(s))
			}
			h := sha256.Sum256([]byte(s))
			if got, want := hex.EncodeToString(h[:]), registryGoldens[e.ID]; got != want {
				t.Errorf("report %s hash %s, golden %q:\n%s", e.ID, got, want, s)
			}
		})
	}
}

func TestSampleEvery(t *testing.T) {
	addrs := make([]ipaddr.Addr, 100)
	for i := range addrs {
		addrs[i] = ipaddr.Addr(i)
	}
	got := sampleEvery(addrs, 10)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Error("sample not strictly increasing")
		}
	}
	if len(sampleEvery(addrs, 200)) != 100 {
		t.Error("oversampling should return everything")
	}
	if len(sampleEvery(addrs, 0)) != 100 {
		t.Error("n<=0 should return everything")
	}
}

// TestFig4ExampleIsLowestAddress runs fig4 on a lab where several
// addresses look like Figure 4's false match, and requires the example to
// be the lowest of them, so the report is the same on every run.
func TestFig4ExampleIsLowestAddress(t *testing.T) {
	scale := Scale{Seed: 7, Blocks: 64, SurveyCycles: 4, ZmapScans: 1, SampleAddrs: 10, TrainPings: 10}
	l := NewLab(scale)
	m := mustMatch(t, l)
	var qualifying []ipaddr.Addr
	m.Range(func(a ipaddr.Addr, ar *core.AddressResult) {
		if fig4FalseMatch(ar) {
			qualifying = append(qualifying, a)
		}
	})
	if len(qualifying) < 2 {
		t.Fatalf("%d addresses qualify; the check needs at least two", len(qualifying))
	}
	rep, err := l.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if want := "example " + slices.Min(qualifying).String() + ":"; !strings.Contains(rep.Body, want) {
		t.Errorf("fig4 body lacks %q (qualifying: %v):\n%s", want, qualifying, rep.Body)
	}
	again, err := NewLab(scale).Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if again.Format() != rep.Format() {
		t.Errorf("fig4 differs between two labs at the same seed:\n%s\n%s", rep.Format(), again.Format())
	}
}

func TestValueAtFrac(t *testing.T) {
	pts := []stats.CDFPoint{{Value: time.Second, Frac: 0.5}, {Value: 2 * time.Second, Frac: 1.0}}
	if valueAtFrac(pts, 0.4) != time.Second {
		t.Error("frac 0.4 should hit the first point")
	}
	if valueAtFrac(pts, 0.9) != 2*time.Second {
		t.Error("frac 0.9 should hit the second point")
	}
	if valueAtFrac(nil, 0.5) != 0 {
		t.Error("empty curve should be 0")
	}
}

func TestExportData(t *testing.T) {
	dir := t.TempDir()
	if err := testLab.ExportData(dir); err != nil {
		t.Fatalf("ExportData: %v", err)
	}
	want := []string{
		"fig1_cdf.csv", "fig6_naive_cdf.csv", "fig6_filtered_cdf.csv",
		"fig2_octets.csv", "fig3_octets.csv", "fig5_ccdf.csv", "fig7_cdf.csv",
		"fig11_scatter.csv", "fig12_delta.csv", "fig12_prob.csv",
		"fig13_wake.csv", "fig14_share.csv", "tab2_matrix.csv",
	}
	for _, name := range want {
		path := filepath.Join(dir, name)
		st, err := os.Stat(path)
		if err != nil {
			t.Errorf("%s missing: %v", name, err)
			continue
		}
		if st.Size() < 20 {
			t.Errorf("%s suspiciously small (%d bytes)", name, st.Size())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Errorf("%s: invalid csv: %v", name, err)
			continue
		}
		if len(rows) < 2 {
			t.Errorf("%s: only %d rows", name, len(rows))
		}
	}
	// The matrix must contain one row per cell: 7x7 levels + header.
	f, _ := os.Open(filepath.Join(dir, "tab2_matrix.csv"))
	rows, _ := csv.NewReader(f).ReadAll()
	f.Close()
	if len(rows) != 1+49 {
		t.Errorf("tab2_matrix rows = %d, want 50", len(rows))
	}
	// fig7 must cover every scan.
	f2, _ := os.Open(filepath.Join(dir, "fig7_cdf.csv"))
	rows2, _ := csv.NewReader(f2).ReadAll()
	f2.Close()
	scans := map[string]bool{}
	for _, r := range rows2[1:] {
		scans[r[0]] = true
	}
	if len(scans) != testLab.Scale.ZmapScans {
		t.Errorf("fig7 covers %d scans, want %d", len(scans), testLab.Scale.ZmapScans)
	}
}
