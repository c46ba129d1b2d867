package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// obsScale is a small scale for the observability equivalence tests.
var obsScale = Scale{Seed: 42, Blocks: 96, SurveyCycles: 4, ZmapScans: 1, SampleAddrs: 50, TrainPings: 100}

// surveyIntoMatcher runs the lab's survey a second time, probing straight
// into a matcher whose metrics join the survey's on the lab's registry, and
// returns the matcher's result.
func surveyIntoMatcher(t *testing.T, l *Lab) *core.Result {
	t.Helper()
	m := core.NewStreamMatcher(core.MatchOptionsForCycles(l.Scale.SurveyCycles))
	m.SetObserver(l.Obs)
	cfg := survey.Config{
		Vantage: survey.VantageW,
		Cycles:  l.Scale.SurveyCycles,
		Seed:    l.Scale.Seed,
		Obs:     l.Obs,
		Trace:   l.Trace,
	}
	var err error
	if l.Parallel > 1 {
		pop := netmodel.New(l.popCfg)
		cfg.Blocks = pop.Blocks()
		_, err = survey.RunSharded(cfg, l.Parallel, ShardFabric(pop), m)
	} else {
		w := NewWorld(l.popCfg)
		cfg.Blocks = w.Pop.Blocks()
		_, err = survey.Run(w.Net, cfg, m)
	}
	if err != nil {
		t.Fatal(err)
	}
	res := m.Finalize()
	if res.OutOfOrder != 0 {
		t.Fatalf("%d addresses' survey records out of emission order", res.OutOfOrder)
	}
	return res
}

// runObsWorkloads runs the lab's instrumented workloads — the survey, the
// survey probed straight into a matcher, and one Zmap scan — and returns
// the deterministic snapshot JSON and the manifest's deterministic section.
func runObsWorkloads(t *testing.T, parallel int) (lab *Lab, snap, manifest []byte) {
	t.Helper()
	lab = NewLab(obsScale)
	lab.Parallel = parallel
	lab.Obs = obs.NewRegistry()
	lab.Trace = obs.NewTracer()
	if _, _, err := lab.Survey(); err != nil {
		t.Fatal(err)
	}
	surveyIntoMatcher(t, lab)
	if _, err := lab.Scans(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lab.Obs.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m := obs.BuildManifest("obs-test", obsScale.Seed, parallel, nil, nil, lab.Trace, lab.Obs)
	det, err := m.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	return lab, buf.Bytes(), det
}

// TestObsShardInvariance is the equivalence suite for the observability
// layer's determinism contract: for a fixed seed, the deterministic metric
// snapshot and the manifest's run section are byte-identical whether the
// workloads run sequentially or sharded — the same discipline the dataset
// merge guarantees, extended to metrics. make obs-check runs this.
func TestObsShardInvariance(t *testing.T) {
	_, seqSnap, seqMan := runObsWorkloads(t, 1)
	_, parSnap, parMan := runObsWorkloads(t, 8)
	if !bytes.Equal(seqSnap, parSnap) {
		t.Errorf("metric snapshots differ between -parallel 1 and -parallel 8:\nsequential:\n%s\nsharded:\n%s", seqSnap, parSnap)
	}
	if !bytes.Equal(seqMan, parMan) {
		t.Errorf("deterministic manifest sections differ between -parallel 1 and -parallel 8:\nsequential:\n%s\nsharded:\n%s", seqMan, parMan)
	}
	if len(seqSnap) == 0 || !bytes.Contains(seqSnap, []byte("survey.probes")) {
		t.Fatalf("snapshot looks empty or uninstrumented:\n%s", seqSnap)
	}
}

// obsGoldens are SHA-256 hashes of runObsWorkloads' deterministic snapshot
// and manifest section, pinned from the map-backed state paths the dense
// ones replaced (the survey's outstanding map, one scheduled event per scan
// probe, the map StreamMatcher, the per-address radio map). They were
// re-pinned once, when the matcher's always-zero P² spill counter left the
// snapshot with the sketch it counted.
var obsGoldens = struct{ snapshot, manifest string }{
	snapshot: "44febceba70a30696bd02628fffce33078631887088b5468dfa46a1b07cc4df7",
	manifest: "56178c6ffafe468fd59ce9447aaee876265d739ce2f2f1726bc35bf4f699a343",
}

// TestObsDenseInvariance pins the deterministic snapshot and manifest bytes
// of the dense state paths — the survey's outstanding ring, the scanner's
// pump/bitset loop, the dense StreamMatcher, the model's bounded radio
// table — to the map paths' goldens, sequentially and sharded. Note
// obsScale's 96 blocks make a non-power-of-two population, so the
// permutation's table-backed Seek is on this path as well.
func TestObsDenseInvariance(t *testing.T) {
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	for _, parallel := range []int{1, 8} {
		_, snap, man := runObsWorkloads(t, parallel)
		if got := sum(snap); got != obsGoldens.snapshot {
			t.Errorf("-parallel %d metric snapshot hash %s, map-path golden %s:\n%s", parallel, got, obsGoldens.snapshot, snap)
		}
		if got := sum(man); got != obsGoldens.manifest {
			t.Errorf("-parallel %d manifest section hash %s, map-path golden %s:\n%s", parallel, got, obsGoldens.manifest, man)
		}
	}
}

// TestObsProbeAnalysisAgreement cross-checks the probe-side histograms
// against the analysis-side results computed from the actual datasets:
//
//   - the zmap.rtt_first_self tail fractions at the paper thresholds (5s,
//     145s) must equal stats.FracAbove over the scan's per-address RTTs —
//     the histogram boundaries are exactly the paper thresholds, so the
//     bucket sums are exact, not interpolated;
//
//   - the survey-side matched-RTT histogram must be bucket-for-bucket
//     identical to the matcher-side one, since Lab.Match registers the
//     matcher on the lab's registry and it consumes exactly the records the
//     surveyor emitted.
func TestObsProbeAnalysisAgreement(t *testing.T) {
	// A fresh lab running the survey exactly once (via Match), so the
	// probe-side and matcher-side histograms see the same single record
	// stream.
	lab := NewLab(obsScale)
	lab.Parallel = 4
	lab.Obs = obs.NewRegistry()
	if _, err := lab.Match(); err != nil {
		t.Fatal(err)
	}
	scans, err := lab.Scans(1)
	if err != nil {
		t.Fatal(err)
	}
	snap := lab.Obs.Snapshot()
	rtts := scans[0].RTTPercentiles()
	if len(rtts) == 0 {
		t.Fatal("scan produced no per-address RTTs")
	}
	for _, bound := range []time.Duration{5 * time.Second, 145 * time.Second} {
		histFrac := snap.HistogramTail("zmap.rtt_first_self", bound)
		anaFrac := stats.FracAbove(rtts, bound)
		if math.Abs(histFrac-anaFrac) > 1e-12 {
			t.Errorf("tail fraction >%v: probe-side histogram %.9f, analysis side %.9f", bound, histFrac, anaFrac)
		}
	}

	var surveyRTT, matchRTT *obs.HistSnap
	for i := range snap.Histograms {
		switch snap.Histograms[i].Name {
		case "survey.rtt_matched":
			surveyRTT = &snap.Histograms[i]
		case "match.rtt_matched":
			matchRTT = &snap.Histograms[i]
		}
	}
	if surveyRTT == nil || matchRTT == nil {
		t.Fatalf("matched-RTT histograms missing (survey: %v, match: %v)", surveyRTT != nil, matchRTT != nil)
	}
	if surveyRTT.Count != matchRTT.Count || !reflect.DeepEqual(surveyRTT.Buckets, matchRTT.Buckets) {
		t.Errorf("probe-side and matcher-side matched-RTT histograms disagree:\nsurvey: %+v\nmatch:  %+v", *surveyRTT, *matchRTT)
	}
	if surveyRTT.Count == 0 {
		t.Error("matched-RTT histograms are empty")
	}
}
