package survey

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
)

// surveySnap renders a registry's deterministic snapshot for comparison.
func surveySnap(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// surveyDigest hashes everything a survey's determinism contract covers:
// the dataset bytes, the run's Stats and the deterministic metric snapshot.
func surveyDigest(t *testing.T, seed uint64, st Stats, recs []Record, reg *obs.Registry) string {
	t.Helper()
	h := sha256.New()
	h.Write(encode(t, seed, recs))
	fmt.Fprintf(h, "%+v\n", st)
	h.Write(surveySnap(t, reg))
	return hex.EncodeToString(h.Sum(nil))
}

// surveyGoldens are surveyDigest values pinned from the map-backed prober
// this package used to carry next to the dense one (outstanding probes in
// a per-address map, the model's radio state in a per-address map). The
// slot-column ring and the bounded radio table must reproduce them byte
// for byte.
var surveyGoldens = map[string]string{
	"default/seed5":  "57ee27f99b430d70085e7fb87c75257249105bdaa32c16d23a47b4ceaed1c3fa",
	"default/seed99": "7154f5a5c5f9c6e617562afee03f68fc4f1f980ba52c155879466a8e197a1cae",
	"mixed4/seed5":   "5d27b60702939d0880f1c096e81743b3a3c0673400f4366f2a98af69683dd5f1",
	"mixed4/seed99":  "85528e3675e7ae8219c522abf512e97d20ef2e637a51c7b8c75e7a371b0686e4",
	"pathological":   "63f79a9e1b454af885bdd296513e10a523353ed55f01d9bde11c2d60fee8d0ec",
}

// TestSurveyDenseMatchesMap pins the survey's dataset, stats and metric
// snapshot to the map path's goldens, sequentially and across shard counts.
func TestSurveyDenseMatchesMap(t *testing.T) {
	catalogs := []struct {
		name    string
		blocks  int
		catalog []netmodel.ASSpec
	}{
		{name: "default", blocks: 64, catalog: nil},
		{name: "mixed4", blocks: 32, catalog: testCatalog()},
	}
	for _, cat := range catalogs {
		for _, seed := range []uint64{5, 99} {
			name := fmt.Sprintf("%s/seed%d", cat.name, seed)
			t.Run(name, func(t *testing.T) {
				pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: cat.blocks, Catalog: cat.catalog})
				base := Config{Vantage: VantageW, Blocks: pop.Blocks(), Cycles: 3, Seed: seed}
				check := func(mode string, st Stats, mem *MemWriter, reg *obs.Registry) {
					t.Helper()
					if st.Matched == 0 || st.Timeouts == 0 {
						t.Fatalf("%s: stats %+v leave the golden check vacuous", mode, st)
					}
					if got := surveyDigest(t, seed, st, mem.Records, reg); got != surveyGoldens[name] {
						t.Errorf("%s: digest %s, map-path golden %q", mode, got, surveyGoldens[name])
					}
				}

				cfg := base
				cfg.Obs = obs.NewRegistry()
				var seqMem MemWriter
				seqStats, err := Run(simnet.NewNetwork(&simnet.Scheduler{}, surveyFabric(pop, VantageW)(0)), cfg, &seqMem)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				check("sequential", seqStats, &seqMem, cfg.Obs)

				for _, shards := range []int{1, 4, 8} {
					scfg := base
					scfg.Obs = obs.NewRegistry()
					var parMem MemWriter
					parStats, err := RunSharded(scfg, shards, surveyFabric(pop, VantageW), &parMem)
					if err != nil {
						t.Fatalf("RunSharded(%d): %v", shards, err)
					}
					check(fmt.Sprintf("shards=%d", shards), parStats, &parMem, scfg.Obs)
				}
			})
		}
	}
}

// TestSurveyDensePathological drives the force-expiry path: an interval
// shorter than the timeout re-probes addresses while their previous probes
// are still outstanding, so every slot force-expires its predecessor. The
// ring must keep several live columns per slot residue and still reproduce
// the map path's golden, sequentially and sharded.
func TestSurveyDensePathological(t *testing.T) {
	const seed = 7
	pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: 32, Catalog: testCatalog()})
	cfg := Config{
		Vantage:  VantageW,
		Blocks:   pop.Blocks(),
		Interval: 2 * time.Second, // < Timeout: probes outlive the cycle
		Timeout:  3 * time.Second,
		Sweep:    4 * time.Second,
		Cycles:   4,
		Seed:     seed,
	}
	want := surveyGoldens["pathological"]

	var mem MemWriter
	reg := obs.NewRegistry()
	cfg.Obs = reg
	st, err := Run(simnet.NewNetwork(&simnet.Scheduler{}, surveyFabric(pop, VantageW)(0)), cfg, &mem)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Timeouts == 0 {
		t.Fatal("pathological config produced no timeouts; force-expiry untested")
	}
	if got := surveyDigest(t, seed, st, mem.Records, reg); got != want {
		t.Errorf("sequential: digest %s, map-path golden %q", got, want)
	}

	var parMem MemWriter
	cfg.Obs = obs.NewRegistry()
	parStats, err := RunSharded(cfg, 4, surveyFabric(pop, VantageW), &parMem)
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	if got := surveyDigest(t, seed, parStats, parMem.Records, cfg.Obs); got != want {
		t.Errorf("shards=4: digest %s, map-path golden %q", got, want)
	}
}

// TestSurveyDenseRejectsBadConfig covers the configuration errors: a
// duplicate block, a zero slot duration, and a timeout so far beyond the
// slot duration that the outstanding ring would be unbounded — whose error
// names the smallest interval the timeout allows.
func TestSurveyDenseRejectsBadConfig(t *testing.T) {
	pop := netmodel.New(netmodel.Config{Seed: 1, Blocks: 32, Catalog: testCatalog()})
	var mem MemWriter
	run := func(cfg Config) error {
		_, err := Run(simnet.NewNetwork(&simnet.Scheduler{}, surveyFabric(pop, VantageW)(0)), cfg, &mem)
		return err
	}

	dup := Config{Seed: 1, Blocks: append([]ipaddr.Prefix24(nil), pop.Blocks()...)}
	dup.Blocks[3] = dup.Blocks[7]
	if err := run(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate block: err = %v, want a duplicate-block error", err)
	}
	if _, err := RunSharded(dup, 4, surveyFabric(pop, VantageW), &mem); err == nil {
		t.Error("duplicate block accepted by RunSharded")
	}

	tiny := Config{Blocks: pop.Blocks(), Interval: 100, Seed: 1} // 100ns: zero slot duration
	if err := run(tiny); err == nil {
		t.Error("zero slot duration accepted")
	}

	huge := Config{Blocks: pop.Blocks(), Interval: 300 * time.Millisecond,
		Timeout: 2 * time.Hour, Sweep: time.Second, Seed: 1}
	err := run(huge)
	if err == nil {
		t.Fatal("oversized ring accepted")
	}
	if strings.Contains(err.Error(), "map path") {
		t.Errorf("error still points at the deleted map path: %v", err)
	}
	least := minInterval(huge.Timeout, huge.Sweep)
	if !strings.Contains(err.Error(), "smallest interval this timeout allows is "+least.String()) {
		t.Errorf("error %q does not name the smallest interval %v", err, least)
	}
	// The named interval is exactly the boundary: it is accepted, and one
	// nanosecond less is not.
	at := huge
	at.Interval = least
	if _, err := ringSize(at.withDefaults()); err != nil {
		t.Errorf("interval %v named as the minimum is rejected: %v", least, err)
	}
	at.Interval = least - 1
	if _, err := ringSize(at.withDefaults()); err == nil {
		t.Errorf("interval %v below the named minimum %v is accepted", at.Interval, least)
	}
}

// TestSurveySortsBlocks proves the block list is a set: any order of the
// same blocks yields the ascending list's dataset bytes, sequentially and
// sharded, and the caller's slice is left untouched.
func TestSurveySortsBlocks(t *testing.T) {
	const seed = 3
	pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: 32, Catalog: testCatalog()})
	sorted := Config{Blocks: pop.Blocks(), Cycles: 2, Seed: seed}
	var ref MemWriter
	if _, err := Run(simnet.NewNetwork(&simnet.Scheduler{}, surveyFabric(pop, VantageW)(0)), sorted, &ref); err != nil {
		t.Fatal(err)
	}
	want := encode(t, seed, ref.Records)

	shuffled := sorted
	shuffled.Blocks = append([]ipaddr.Prefix24(nil), pop.Blocks()...)
	for i := range shuffled.Blocks {
		j := (i*7 + 3) % len(shuffled.Blocks)
		shuffled.Blocks[i], shuffled.Blocks[j] = shuffled.Blocks[j], shuffled.Blocks[i]
	}
	order := append([]ipaddr.Prefix24(nil), shuffled.Blocks...)
	var seq MemWriter
	if _, err := Run(simnet.NewNetwork(&simnet.Scheduler{}, surveyFabric(pop, VantageW)(0)), shuffled, &seq); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, seed, seq.Records), want) {
		t.Error("shuffled block list: sequential dataset differs from the sorted list's")
	}
	var par MemWriter
	if _, err := RunSharded(shuffled, 4, surveyFabric(pop, VantageW), &par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, seed, par.Records), want) {
		t.Error("shuffled block list: sharded dataset differs from the sorted list's")
	}
	for i := range order {
		if shuffled.Blocks[i] != order[i] {
			t.Fatal("Run reordered the caller's block slice")
		}
	}
}
