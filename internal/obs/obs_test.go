package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("Counter not idempotent per name")
	}
	g := r.Gauge("a.hwm")
	g.Observe(7)
	g.Observe(3)
	g.Observe(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want max 9", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(3)
	r.Gauge("y").Observe(1)
	r.Histogram("z").Observe(time.Second)
	r.Merge(NewRegistry())
	var tr *Tracer
	tr.SimSpan("p", 0, time.Second)
	tr.StartWall("q")()
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestObsMergeCommutative verifies the registry merge discipline: merging K
// per-shard registries yields the same snapshot in any order — the property
// that makes sharded metric collection deterministic.
func TestObsMergeCommutative(t *testing.T) {
	build := func(seed int) *Registry {
		r := NewRegistry()
		r.Counter("probes").Add(uint64(10 * (seed + 1)))
		r.Gauge("hwm").Observe(int64(seed * 7 % 13))
		r.DiagCounter("events").Add(uint64(seed))
		h := r.Histogram("rtt")
		for i := 0; i < 20; i++ {
			h.Observe(time.Duration(seed*i) * 37 * time.Millisecond)
		}
		return r
	}
	shards := []*Registry{build(0), build(1), build(2), build(3)}

	forward := NewRegistry()
	for _, s := range shards {
		forward.Merge(s)
	}
	backward := NewRegistry()
	for i := len(shards) - 1; i >= 0; i-- {
		backward.Merge(shards[i])
	}
	f, _ := json.Marshal(forward.Snapshot())
	b, _ := json.Marshal(backward.Snapshot())
	if !bytes.Equal(f, b) {
		t.Fatalf("merge order changed snapshot:\n%s\nvs\n%s", f, b)
	}
	fd, _ := json.Marshal(forward.DiagnosticSnapshot())
	bd, _ := json.Marshal(backward.DiagnosticSnapshot())
	if !bytes.Equal(fd, bd) {
		t.Fatalf("merge order changed diagnostic snapshot:\n%s\nvs\n%s", fd, bd)
	}
}

// TestObsSnapshotRoundTrip checks the satellite requirement: a metrics
// snapshot round-trips through JSON encode/decode unchanged.
func TestObsSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("survey.probes").Add(12345)
	r.Counter("survey.matched").Add(11000)
	r.Gauge("match.open_probes_hwm").Observe(421)
	h := r.Histogram("survey.rtt_matched")
	for _, d := range []time.Duration{time.Millisecond, 40 * time.Millisecond,
		900 * time.Millisecond, 4 * time.Second, 6 * time.Second, 200 * time.Second} {
		h.Observe(d)
	}
	snap := r.Snapshot()

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := decoded.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Fatalf("snapshot JSON did not round-trip:\n%s\nvs\n%s", first, buf2.String())
	}
}

// TestHistogramPaperBoundaries checks the paper's reporting thresholds are
// exact boundaries, so tail fractions are bucket sums rather than
// interpolations.
func TestHistogramPaperBoundaries(t *testing.T) {
	for _, want := range []time.Duration{time.Second, 5 * time.Second, 60 * time.Second, 145 * time.Second} {
		found := false
		for _, b := range Boundaries {
			if b == want {
				found = true
			}
		}
		if !found {
			t.Errorf("paper threshold %v is not a histogram boundary", want)
		}
	}
	for i := 1; i < len(Boundaries); i++ {
		if Boundaries[i] <= Boundaries[i-1] {
			t.Fatalf("boundaries not increasing at %d", i)
		}
	}
}

func TestHistogramTailFraction(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rtt")
	// 90 fast samples, 6 in (1s, 5s], 3 in (5s, 145s], 1 above 145s.
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Millisecond)
	}
	for i := 0; i < 6; i++ {
		h.Observe(2 * time.Second)
	}
	h.Observe(10 * time.Second)
	h.Observe(80 * time.Second)
	h.Observe(100 * time.Second)
	h.Observe(200 * time.Second)

	if got := h.TailFraction(time.Second); got != 0.10 {
		t.Errorf("TailFraction(1s) = %v, want 0.10", got)
	}
	if got := h.TailFraction(5 * time.Second); got != 0.04 {
		t.Errorf("TailFraction(5s) = %v, want 0.04", got)
	}
	if got := h.TailFraction(145 * time.Second); got != 0.01 {
		t.Errorf("TailFraction(145s) = %v, want 0.01", got)
	}
	// A sample exactly on a boundary is not "above" it.
	r2 := NewRegistry()
	h2 := r2.Histogram("edge")
	h2.Observe(5 * time.Second)
	if got := h2.CountAbove(5 * time.Second); got != 0 {
		t.Errorf("sample at boundary counted above it: %d", got)
	}
	// Snapshot-side tail agrees with the live histogram.
	snap := r.Snapshot()
	if got := snap.HistogramTail("rtt", 5*time.Second); got != 0.04 {
		t.Errorf("snapshot HistogramTail(5s) = %v, want 0.04", got)
	}
}

func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	tr.SimSpan("scan", 0, 90*time.Minute)
	tr.SimSpan("drain", 90*time.Minute, 105*time.Minute)
	end := tr.StartWall("wall-phase")
	end()
	sim := tr.Spans(ClockSim)
	if len(sim) != 2 || sim[0].Name != "scan" || sim[1].Name != "drain" {
		t.Fatalf("sim spans = %+v", sim)
	}
	if sim[0].Dur != 90*time.Minute {
		t.Errorf("scan span dur = %v", sim[0].Dur)
	}
	if wall := tr.Spans(ClockWall); len(wall) != 1 || wall[0].Name != "wall-phase" {
		t.Fatalf("wall spans = %+v", tr.Spans(ClockWall))
	}
}

func TestManifestDeterministicJSON(t *testing.T) {
	build := func() Manifest {
		r := NewRegistry()
		r.Counter("probes").Add(100)
		r.DiagCounter("events").Add(12345) // diagnostic: must not leak into Run
		tr := NewTracer()
		tr.SimSpan("scan", 0, time.Hour)
		tr.StartWall("exec")()
		return BuildManifest("zmapscan", 42, 8, map[string]string{"blocks": "64"},
			&FaultSummary{Seed: 1, WireCorrupt: 0.01}, tr, r)
	}
	a, err := build().DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := build().DeterministicJSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic manifest not stable:\n%s\nvs\n%s", a, b)
	}
	if strings.Contains(string(a), "events") {
		t.Error("diagnostic metric leaked into deterministic manifest section")
	}
	if !strings.Contains(string(a), `"wire_corrupt": 0.01`) {
		t.Errorf("fault plan missing from manifest run section:\n%s", a)
	}
	var m Manifest
	full, _ := json.Marshal(build())
	if err := json.Unmarshal(full, &m); err != nil {
		t.Fatal(err)
	}
	if m.Exec.Shards != 8 || m.Exec.Flags["blocks"] != "64" {
		t.Errorf("exec section lost data: %+v", m.Exec)
	}
}

func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: timeouts
BenchmarkParallelScan-8   	     100	  12345678 ns/op	  456789 B/op	    1234 allocs/op
BenchmarkStreamingMatch   	    5000	    250000 ns/op
BenchmarkDenseScan-8      	      20	  98765432 ns/op	 6.442e+07 peak-heap-B	    1000 B/op	       2 allocs/op
PASS
ok  	timeouts	12.3s
`
	res := ParseBench(strings.NewReader(out))
	if len(res) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(res), res)
	}
	r0 := res[0]
	if r0.Name != "ParallelScan" || r0.Procs != 8 || r0.Iterations != 100 ||
		r0.NsPerOp != 12345678 || r0.BytesPerOp != 456789 || r0.AllocsPerOp != 1234 {
		t.Errorf("result 0 = %+v", r0)
	}
	r1 := res[1]
	if r1.Name != "StreamingMatch" || r1.Procs != 1 || r1.NsPerOp != 250000 || r1.BytesPerOp != 0 {
		t.Errorf("result 1 = %+v", r1)
	}
	r2 := res[2]
	if r2.Name != "DenseScan" || r2.PeakHeapBytes != 6.442e+07 || r2.BytesPerOp != 1000 || r2.AllocsPerOp != 2 {
		t.Errorf("result 2 = %+v, want peak-heap-B parsed", r2)
	}
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	var decoded []BenchResult
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("bench JSON invalid: %v\n%s", err, buf.String())
	}
	if len(decoded) != 3 {
		t.Errorf("bench JSON has %d entries", len(decoded))
	}
	if decoded[2].PeakHeapBytes != 6.442e+07 {
		t.Errorf("peak heap lost in JSON round trip: %+v", decoded[2])
	}
}

func TestCompareBench(t *testing.T) {
	old := []BenchResult{
		{Name: "ParallelScan/shards=1", Procs: 1, NsPerOp: 1000},
		{Name: "SchedulerThroughput", Procs: 1, NsPerOp: 200},
		{Name: "Gone", Procs: 1, NsPerOp: 50},
	}
	now := []BenchResult{
		{Name: "ParallelScan/shards=1", Procs: 1, NsPerOp: 1200}, // +20%: regression
		{Name: "SchedulerThroughput", Procs: 1, NsPerOp: 100},    // -50%: improvement
		{Name: "Fresh", Procs: 1, NsPerOp: 10},                   // unmatched: named, not compared
		{Name: "Fresh", Procs: 1, NsPerOp: 30},
		{Name: "SchedulerThroughput", Procs: 2, NsPerOp: 90}, // other procs: unmatched
	}
	deltas, onlyOld, onlyNew := CompareBench(old, now, 10)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2: %+v", len(deltas), deltas)
	}
	wantOld := []BenchResult{{Name: "Gone", Procs: 1, NsPerOp: 50}}
	wantNew := []BenchResult{{Name: "Fresh", Procs: 1, NsPerOp: 20}, {Name: "SchedulerThroughput", Procs: 2, NsPerOp: 90}}
	if !reflect.DeepEqual(onlyOld, wantOld) || !reflect.DeepEqual(onlyNew, wantNew) {
		t.Errorf("only in old %+v, only in new %+v; want %+v and %+v", onlyOld, onlyNew, wantOld, wantNew)
	}
	byName := map[string]BenchDelta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["ParallelScan/shards=1"]; !d.Regressed || d.DeltaPct != 20 {
		t.Errorf("scan delta = %+v, want regressed +20%%", d)
	}
	if d := byName["SchedulerThroughput"]; d.Regressed || d.DeltaPct != -50 {
		t.Errorf("sched delta = %+v, want improved -50%%", d)
	}
	var buf bytes.Buffer
	if !WriteBenchDeltas(&buf, deltas) {
		t.Error("WriteBenchDeltas did not report the regression")
	}
	// Just inside the threshold is not a regression.
	if ds, _, _ := CompareBench(old[:1], []BenchResult{{Name: "ParallelScan/shards=1", Procs: 1, NsPerOp: 1100}}, 10); ds[0].Regressed {
		t.Errorf("+10.0%% flagged at a 10%% threshold: %+v", ds[0])
	}
}

// TestCompareBenchMedians pins the reduction of repeated entries: each side
// of a -count N run, or of alternating rounds, becomes one median per
// (Name, Procs), so a benchmark yields one delta however often it ran.
func TestCompareBenchMedians(t *testing.T) {
	old := []BenchResult{
		{Name: "Analyze", Procs: 2, NsPerOp: 300, PeakHeapBytes: 40 << 20},
		{Name: "Analyze", Procs: 2, NsPerOp: 100, PeakHeapBytes: 10 << 20},
		{Name: "Analyze", Procs: 2, NsPerOp: 200, PeakHeapBytes: 20 << 20},
		{Name: "Analyze", Procs: 1, NsPerOp: 1000},
	}
	now := []BenchResult{
		{Name: "Analyze", Procs: 2, NsPerOp: 150, PeakHeapBytes: 20 << 20},
		{Name: "Analyze", Procs: 2, NsPerOp: 900, PeakHeapBytes: 30 << 20}, // an outlier the median ignores
		{Name: "Analyze", Procs: 2, NsPerOp: 90, PeakHeapBytes: 28 << 20},
		{Name: "Analyze", Procs: 2, NsPerOp: 110, PeakHeapBytes: 24 << 20},
		{Name: "Analyze", Procs: 1, NsPerOp: 1300},
		{Name: "Analyze", Procs: 1, NsPerOp: 1100},
	}
	deltas, _, _ := CompareBench(old, now, 10)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want one per (name, procs): %+v", len(deltas), deltas)
	}
	// Procs 2: old median 200 ns, 20 MB; new median (110+150)/2 = 130 ns,
	// (24+28)/2 = 26 MB.
	if d := deltas[0]; d.Procs != 2 || d.OldNsPerOp != 200 || d.NewNsPerOp != 130 || d.Regressed ||
		d.OldPeakHeap != 20<<20 || d.NewPeakHeap != 26<<20 || !d.PeakRegress {
		t.Errorf("procs 2 delta = %+v, want 200 → 130 ns/op and a 20 → 26 MB peak regression", d)
	}
	// Procs 1: one old entry, new median 1200: +20%, and no peak on either side.
	if d := deltas[1]; d.Procs != 1 || d.OldNsPerOp != 1000 || d.NewNsPerOp != 1200 || !d.Regressed || d.OldPeakHeap != 0 {
		t.Errorf("procs 1 delta = %+v, want 1000 → 1200 ns/op regressed, no peak", d)
	}
}

func TestCompareBenchPeakHeap(t *testing.T) {
	old := []BenchResult{
		{Name: "ScaleScan", Procs: 8, NsPerOp: 1000, PeakHeapBytes: 100 << 20},
		{Name: "NoPeak", Procs: 1, NsPerOp: 500},
	}
	now := []BenchResult{
		// ns/op fine, but peak heap +50%: must regress.
		{Name: "ScaleScan", Procs: 8, NsPerOp: 1000, PeakHeapBytes: 150 << 20},
		// Peak appearing on only one side is not compared.
		{Name: "NoPeak", Procs: 1, NsPerOp: 500, PeakHeapBytes: 1 << 20},
	}
	deltas, _, _ := CompareBench(old, now, 10)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas: %+v", len(deltas), deltas)
	}
	byName := map[string]BenchDelta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["ScaleScan"]; !d.PeakRegress || d.Regressed || d.PeakDelta != 50 {
		t.Errorf("ScaleScan delta = %+v, want peak regression +50%%", d)
	}
	if d := byName["NoPeak"]; d.PeakRegress || d.OldPeakHeap != 0 {
		t.Errorf("NoPeak delta = %+v, want no peak comparison", d)
	}
	var buf bytes.Buffer
	if !WriteBenchDeltas(&buf, deltas) {
		t.Error("WriteBenchDeltas did not surface the peak-heap regression")
	}
	if !strings.Contains(buf.String(), "MB peak") {
		t.Errorf("delta output missing peak columns:\n%s", buf.String())
	}
}

func TestHeapSamplerTracksPeak(t *testing.T) {
	s := NewHeapSampler(1)
	ballast := make([]byte, 32<<20)
	for i := range ballast {
		ballast[i] = byte(i)
	}
	s.Sample()
	after := s.Peak()
	runtime.KeepAlive(ballast)
	// Allow a little slack: baseline-live data freed mid-run shrinks the
	// delta by its size.
	if after < 31<<20 {
		t.Fatalf("peak %d did not register the 32 MB ballast", after)
	}
	// The peak is a high-water mark: dropping the ballast must not lower it.
	ballast = nil
	runtime.GC()
	s.Sample()
	if got := s.Peak(); got < after {
		t.Fatalf("peak fell from %d to %d after a GC", after, got)
	}

	// Report emits the parseable metric unit; a fresh sampler's growth is
	// near zero, so the 1 MB floor must kick in (zero would vanish from
	// the JSON via omitempty and never gate).
	rec := metricRecorder{}
	s2 := NewHeapSampler(0) // every<1 clamps to 1
	s2.Report(&rec)
	if rec.unit != PeakHeapUnit || rec.value < 1<<20 {
		t.Fatalf("Report emitted (%v, %q), want at least the 1 MB floor in %s", rec.value, rec.unit, PeakHeapUnit)
	}
}

type metricRecorder struct {
	value float64
	unit  string
}

func (m *metricRecorder) ReportMetric(v float64, unit string) { m.value, m.unit = v, unit }
