package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"timeouts/internal/core"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/survey"
	"timeouts/internal/zmapper"
)

// goldenScales fixes the workloads whose outputs the golden hashes below
// pin: a 96-block population (not a power of two, so the permutation's
// table-backed Seek is exercised) and the Quick scale's 512 blocks. The
// seed is taken from goldenSeeds. Changing either invalidates the goldens,
// so they are deliberately private to this test and never derived from
// anything a run can tune.
var (
	goldenScales = []struct {
		name  string
		scale Scale
	}{
		{"blocks96", Scale{Blocks: 96, SurveyCycles: 4, ZmapScans: 1, SampleAddrs: 50, TrainPings: 100}},
		{"quick", Scale{Blocks: 512, SurveyCycles: 12, ZmapScans: 3, SampleAddrs: 150, TrainPings: 900}},
	}
	goldenSeeds = []uint64{1837, 42, 7}
)

// transportGoldens are SHA-256 hashes of each fixed-seed workload's survey
// dataset, scan response stream (the lab's first scan through
// zmapper.RunShardedInto), metric snapshot, deterministic manifest
// section, and streaming-matcher report (with the snapshot after it ran),
// keyed "<scale>/seed<N>/<component>".
//
// The blocks96/seed1837 survey, scan, snapshot and manifest hashes were
// first captured before the Transport boundary existed, when the probers
// called simnet.Network directly. Every hash was then re-derived on the
// map-backed state paths (per-address outstanding map, one scheduled event
// per scan probe, map StreamMatcher, per-address radio map, heap-equivalent
// wheel) before those were deleted. The dense rank-indexed paths must
// reproduce them byte for byte, at any shard count. The stream hashes were
// re-pinned once, when the matcher's always-zero P² spill counter left the
// snapshot with the sketch it counted; the reports in them did not move.
// For an intentional format change, blank a golden and rerun with -v: the
// failure message prints the newly computed hash to re-pin.
var transportGoldens = map[string]string{
	"blocks96/seed1837/manifest": "5bff0d062eaec82c6184acc4c43646386380c0df1302e83c57e0effc13d962dd",
	"blocks96/seed1837/scan":     "a8b4cc04f54a13a83841159ba7a63ce429168ad1f1724f349471f1271d95e2ff",
	"blocks96/seed1837/snapshot": "54983731a0fbc7f9ae6aaaf4e21801c7c962a569ddb1f62547295251affdfc87",
	"blocks96/seed1837/stream":   "d52f0bd7bbd17e95b1b9c60735ebf428c19438d3cbda99a3111c8202ddc5f36a",
	"blocks96/seed1837/survey":   "963a3bbe82f61630da8a393f10678323f7e9d80b62f795eef92303419a07c5ca",
	"blocks96/seed42/manifest":   "b3bdbdd87e3470a4c48cbb4df38829235f2004a4776c1667abfe6d9c31d6e2fc",
	"blocks96/seed42/scan":       "e48756d25eff9cdc6281cfaf54755f2ba0360d881c4afe74f9764432b6dda773",
	"blocks96/seed42/snapshot":   "781c793d2a283520e49babe62135cd6d8d744578973f7bea60049fdc480e507a",
	"blocks96/seed42/stream":     "b85418f9b00029e245ed75550153cf7d6140758ef394e6b2c361a4996a17c843",
	"blocks96/seed42/survey":     "b1418e0fdfd2ce87c717827ce566828570c4f0def3603bbe695eff29975b1209",
	"blocks96/seed7/manifest":    "ff0a9e86db81d731d615a9c83b1f00e3990fbb867f602614a14b2754bbb41c16",
	"blocks96/seed7/scan":        "8899a9a2c7a1be1faea812bbc107508cefa3b05581fea6f73fdecfbe16c430ac",
	"blocks96/seed7/snapshot":    "cc8a118eaea4ef9a8106bca7b93f838f13df9e455a02313e160d3558e9a26e40",
	"blocks96/seed7/stream":      "ac63d4ae483c74e304fe97ef84bfa03b18890c41fddbfe0d06198e1fdf84afd8",
	"blocks96/seed7/survey":      "257db3d571587bb14d6e13fb5b414e62fc2d696f7b3d2bd3a42fcb7f4bb804b2",
	"quick/seed1837/manifest":    "1b7bf592404182ad49a21a71c6d2f0c70a0ee06fba17aab576fb507ca03efc18",
	"quick/seed1837/scan":        "deb34e1215ba0c4ad3ced38a9b3b1a73c58041b734451b29d94d29e9794c00aa",
	"quick/seed1837/snapshot":    "ce8a7d881a7c79e96e31b071f7b88009e17eb9a4d9f4e617f429653009a0f55b",
	"quick/seed1837/stream":      "f06bb2475fb6c03e6f39f4bca3bd6ecd9fe5459382c1457c017f2ea7de947078",
	"quick/seed1837/survey":      "79d458453953c9f49246a223ab37ddcc6e7c79fcad1ab8ed73770e2810a5cf7d",
	"quick/seed42/manifest":      "6e60992c84516ca4b278ab88f9c749baedc1d749cad76ace7373e1f23500cab0",
	"quick/seed42/scan":          "e42343afcf6a2ee9a942ce48b70bb87b174bc27d489baf8749dff5a941c42a9e",
	"quick/seed42/snapshot":      "a9e7eebf7964d98504b6ebc965c361df02f87be3469cd37743eb757be31737df",
	"quick/seed42/stream":        "ed14c2e27136bafda824885b9066298277b7996f995e8072ad44d0097971569c",
	"quick/seed42/survey":        "8090c2adec5726e386b84fda99520fe7489dc00398722d0e39e7264cadf28a14",
	"quick/seed7/manifest":       "e236a76aa68dc59b24e13e2ebafff9176f8d217b1d9327d47b493b6294ef610d",
	"quick/seed7/scan":           "ec60b21060f5e7165ae68607b6a1270c34e4e0799a43bd7282b3777d2d4a4eb7",
	"quick/seed7/snapshot":       "718a11ff289675fa1b8d33bb5aa1eaaad1246510684409c074e4cbe7726f4bdf",
	"quick/seed7/stream":         "a06b21689d30dfc6cf4f7a5fd0317587e84c5ed2b96778c5641de58979351f01",
	"quick/seed7/survey":         "ec1d6a274d0cf3351cfc701788574e4f63517352fc5e4ee262b23725a439608f",
}

// goldenComponents are the per-workload outputs transportGoldens pins.
var goldenComponents = []string{"survey", "scan", "snapshot", "manifest", "stream"}

// runDiffWorkloads runs the fixed survey + scan + streaming-matcher
// workload at the given scale and shard count and returns the SHA-256 of
// each output component.
func runDiffWorkloads(t *testing.T, sc Scale, parallel int) map[string]string {
	t.Helper()
	lab := NewLab(sc)
	lab.Parallel = parallel
	lab.Obs = obs.NewRegistry()
	lab.Trace = obs.NewTracer()

	recs, _, err := lab.Survey()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("survey produced no records; differential check is vacuous")
	}
	var sbuf bytes.Buffer
	w := survey.NewWriter(&sbuf, survey.Header{Seed: sc.Seed, Vantage: 'w'})
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	if _, err := lab.Scans(1); err != nil {
		t.Fatal(err)
	}
	// The lab keeps the scan's report; its raw response stream is the
	// same scan again through RunShardedInto, collecting nothing on the
	// lab's registry or tracer.
	pop := netmodel.New(lab.PopConfig())
	cfg := lab.scanConfig(0, pop)
	cfg.Obs, cfg.Trace = nil, nil
	zh := sha256.New()
	responses := 0
	if _, err := zmapper.RunShardedInto(cfg, parallel, ShardFabric(pop), func(r zmapper.Response) {
		responses++
		binary.Write(zh, binary.BigEndian, uint32(r.Dst))
		binary.Write(zh, binary.BigEndian, uint32(r.Src))
		binary.Write(zh, binary.BigEndian, int64(r.RTT))
	}); err != nil {
		t.Fatal(err)
	}
	if responses == 0 {
		t.Fatal("scan produced no responses; differential check is vacuous")
	}

	var snap bytes.Buffer
	if err := lab.Obs.Snapshot().WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	man, err := obs.BuildManifest("transport-diff", sc.Seed, parallel, nil, nil, lab.Trace, lab.Obs).DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}

	// The survey re-runs straight into a matcher; its report and the
	// registry after it (now holding the match.* metrics) form one
	// component.
	var stream bytes.Buffer
	stream.WriteString(core.RenderReport(surveyIntoMatcher(t, lab), false))
	if err := lab.Obs.Snapshot().WriteJSON(&stream); err != nil {
		t.Fatal(err)
	}

	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	return map[string]string{
		"survey":   sum(sbuf.Bytes()),
		"scan":     hex.EncodeToString(zh.Sum(nil)),
		"snapshot": sum(snap.Bytes()),
		"manifest": sum(man),
		"stream":   sum(stream.Bytes()),
	}
}

// checkGoldens compares one run's component hashes with the pinned ones.
func checkGoldens(t *testing.T, key string, parallel int, got map[string]string) {
	t.Helper()
	for _, comp := range goldenComponents {
		want := transportGoldens[key+"/"+comp]
		switch {
		case want == "":
			t.Errorf("%s/%s: no golden recorded; -parallel %d hash is %s", key, comp, parallel, got[comp])
		case got[comp] != want:
			t.Errorf("%s/%s: -parallel %d hash %s differs from golden %s", key, comp, parallel, got[comp], want)
		}
	}
}

// runGoldenScale checks one golden scale for every seed at -parallel
// {1, 4, 8}.
func runGoldenScale(t *testing.T, name string, scale Scale) {
	for _, seed := range goldenSeeds {
		sc := scale
		sc.Seed = seed
		key := fmt.Sprintf("%s/seed%d", name, seed)
		t.Run(key, func(t *testing.T) {
			for _, parallel := range []int{1, 4, 8} {
				checkGoldens(t, key, parallel, runDiffWorkloads(t, sc, parallel))
			}
		})
	}
}

// TestTransportDifferentialIdentity is the golden suite for the probe
// engine: fixed-seed survey, scan and streaming-matcher runs through
// SimTransport must reproduce the pinned hashes byte for byte for 3 seeds
// × -parallel {1, 4, 8} on the 96-block population. make transport-check
// runs it under the race detector.
func TestTransportDifferentialIdentity(t *testing.T) {
	runGoldenScale(t, goldenScales[0].name, goldenScales[0].scale)
}

// TestQuickScaleGoldens is the same check on the 512-block population. It
// is kept out of TestTransportDifferentialIdentity because under the race
// detector its nine runs take minutes and most of a gigabyte, while the
// 96-block runs already drive every sharded code path the detector
// watches.
func TestQuickScaleGoldens(t *testing.T) {
	runGoldenScale(t, goldenScales[1].name, goldenScales[1].scale)
}
