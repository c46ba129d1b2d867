package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// goldenRegistry builds a fixed registry exercising every metric kind and
// both determinism classes, so the golden file pins the full encoding:
// sanitized names, class labels, sorted family order, cumulative buckets,
// +Inf, _sum, _count.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("probe.sent").Add(42)
	reg.DiagCounter("advisor.queries").Add(7)
	reg.Gauge("pop.blocks").Observe(512)
	reg.DiagGauge("advisor.ingest.loop.queue_hwm").Observe(33)
	h := reg.Histogram("rtt.all")
	h.Observe(1 * time.Millisecond)
	h.Observe(4 * time.Second)
	h.ObserveN(200*time.Second, 3)
	h.Observe(2000 * time.Second) // overflow bucket
	dh := reg.DiagHistogram("advisor.http.latency.timeout.2xx")
	dh.Observe(2 * time.Millisecond)
	return reg
}

// goldenExtra is the golden scrape's extra collector: a family with an
// escaping-hostile label value.
func goldenExtra(w *PromWriter) {
	w.Type("extra_info", "gauge")
	w.Sample("extra_info", 1.5, "class", "diagnostic", "path", "a\\b\"c\nd")
}

func TestPromTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePromText(&buf, goldenRegistry(), PromCollectorFunc(goldenExtra)); err != nil {
		t.Fatalf("WritePromText: %v", err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("PROMTEXT_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (rerun with PROMTEXT_UPDATE=1 to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// promFamilies parses an exposition into name → samples, failing the test on
// any line that does not scan as `# TYPE`, or `name{labels} value`.
type promSample struct {
	labels string // raw {..} chunk, "" when bare
	value  float64
}

func parseProm(t *testing.T, r io.Reader) (types map[string]string, samples map[string][]promSample) {
	t.Helper()
	types = make(map[string]string)
	samples = make(map[string][]promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			if _, dup := types[f[2]]; dup {
				t.Fatalf("duplicate TYPE header for %s", f[2])
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		nameLabels, valStr := line[:sp], line[sp+1:]
		var val float64
		switch valStr {
		case "+Inf":
			val = math.Inf(1)
		case "-Inf":
			val = math.Inf(-1)
		default:
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			val = v
		}
		name, labels := nameLabels, ""
		if i := strings.IndexByte(nameLabels, '{'); i >= 0 {
			name, labels = nameLabels[:i], nameLabels[i:]
			if !strings.HasSuffix(labels, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
		}
		samples[name] = append(samples[name], promSample{labels: labels, value: val})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, samples
}

// TestPromTextHistogramInvariants checks the format contracts scrapers rely
// on: every histogram family's buckets are cumulative and monotone, the +Inf
// bucket equals _count, and _sum is present.
func TestPromTextHistogramInvariants(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePromText(&buf, goldenRegistry()); err != nil {
		t.Fatal(err)
	}
	types, samples := parseProm(t, &buf)
	histFams := 0
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		histFams++
		buckets := samples[fam+"_bucket"]
		if len(buckets) == 0 {
			t.Errorf("%s: no buckets", fam)
			continue
		}
		prev := -1.0
		var inf float64
		seenInf := false
		for _, b := range buckets {
			if b.value < prev {
				t.Errorf("%s: bucket counts not monotone: %v then %v", fam, prev, b.value)
			}
			prev = b.value
			if strings.Contains(b.labels, `le="+Inf"`) {
				inf, seenInf = b.value, true
			}
		}
		if !seenInf {
			t.Errorf("%s: missing +Inf bucket", fam)
		}
		counts := samples[fam+"_count"]
		if len(counts) != 1 || counts[0].value != inf {
			t.Errorf("%s: _count %v != +Inf bucket %v", fam, counts, inf)
		}
		if len(samples[fam+"_sum"]) != 1 {
			t.Errorf("%s: want exactly one _sum, got %d", fam, len(samples[fam+"_sum"]))
		}
	}
	if histFams != 2 {
		t.Errorf("histogram families = %d, want 2", histFams)
	}
	// The deterministic rtt.all histogram: 1ms + 4s + 3×200s + 2000s.
	rtt := samples["rtt_all_seconds_sum"]
	wantSum := (1*time.Millisecond + 4*time.Second + 3*200*time.Second + 2000*time.Second).Seconds()
	if len(rtt) != 1 || rtt[0].value != wantSum {
		t.Errorf("rtt_all_seconds_sum = %v, want %v", rtt, wantSum)
	}
}

func TestPromClassLabels(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePromText(&buf, goldenRegistry()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`probe_sent{class="deterministic"} 42`,
		`advisor_queries{class="diagnostic"} 7`,
		`pop_blocks{class="deterministic"} 512`,
		`advisor_ingest_loop_queue_hwm{class="diagnostic"} 33`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		`back\slash`:   `back\\slash`,
		`qu"ote`:       `qu\"ote`,
		"new\nline":    `new\nline`,
		`all\"` + "\n": `all\\\"\n`,
	}
	for in, want := range cases {
		if got := escapeLabel(in); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"advisor.http.shed": "advisor_http_shed",
		"rtt-all":           "rtt_all",
		"9lives":            "_9lives",
		"ok_name:sub":       "ok_name:sub",
		"sp ace":            "sp_ace",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatValue(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		v    float64
		want string
	}{
		{42, "42"},
		{0, "0"},
		{-3, "-3"},
		{1.5, "1.5"},
		{0.001, "0.001"},
		{inf, "+Inf"},
		{-inf, "-Inf"},
	}
	for _, c := range cases {
		if got := formatValue(c.v); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestRuntimeCollector checks the runtime series render and respect the same
// histogram contracts as registry families.
func TestRuntimeCollector(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	NewRuntimeCollector().CollectProm(pw)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	types, samples := parseProm(t, &buf)
	if g := samples["go_goroutines"]; len(g) != 1 || g[0].value < 1 {
		t.Errorf("go_goroutines = %v, want one sample >= 1", g)
	}
	if types["go_gc_pause_seconds"] != "histogram" {
		t.Errorf("go_gc_pause_seconds type = %q", types["go_gc_pause_seconds"])
	}
	var inf float64
	for _, b := range samples["go_gc_pause_seconds_bucket"] {
		if strings.Contains(b.labels, `le="+Inf"`) {
			inf = b.value
		}
	}
	if c := samples["go_gc_pause_seconds_count"]; len(c) != 1 || c[0].value != inf {
		t.Errorf("gc pause _count %v != +Inf bucket %v", c, inf)
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.DiagHistogram("q")
	if _, ok := QuantileOver(99, h); ok {
		t.Error("empty histogram reported a quantile")
	}
	h.ObserveN(1*time.Millisecond, 99)
	h.Observe(4 * time.Second)
	// p50 lands well inside the 1ms bucket; p99 is the 99th of 100 samples,
	// still 1ms; p99.9 → rank 100 → the 4s sample's bucket boundary (5s).
	if q, ok := QuantileOver(50, h); !ok || q != 1*time.Millisecond {
		t.Errorf("p50 = %v, %v", q, ok)
	}
	if q, ok := QuantileOver(99, h); !ok || q != 1*time.Millisecond {
		t.Errorf("p99 = %v, %v", q, ok)
	}
	if q, ok := QuantileOver(99.9, h); !ok || q != 5*time.Second {
		t.Errorf("p99.9 = %v, %v", q, ok)
	}
	// Overflow clamps to the last boundary.
	h2 := reg.DiagHistogram("q2")
	h2.Observe(5000 * time.Second)
	if q, ok := QuantileOver(99, h2); !ok || q != Boundaries[len(Boundaries)-1] {
		t.Errorf("overflow quantile = %v, %v", q, ok)
	}
	// QuantileOver folds histograms bucket-wise.
	if q, ok := QuantileOver(99.9, h, h2); !ok || q < 5*time.Second {
		t.Errorf("QuantileOver = %v, %v", q, ok)
	}
	if _, ok := QuantileOver(50, nil, nil); ok {
		t.Error("QuantileOver over nils reported a quantile")
	}
}

// TestDebugServerMetrics drives the full debug plane: /metrics content type
// and contents, RegisterProm extras, /metrics.json, and Close releasing the
// port so a second server can bind it.
func TestDebugServerMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("probe.sent").Add(5)
	d, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}
	body, ct := get("/metrics")
	if ct != PromContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, PromContentType)
	}
	for _, want := range []string{`probe_sent{class="deterministic"} 5`, "go_goroutines"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	d.RegisterProm(PromCollectorFunc(func(w *PromWriter) {
		w.Type("extra_live", "gauge")
		w.Sample("extra_live", 7)
	}))
	if body, _ := get("/metrics"); !strings.Contains(body, "extra_live 7") {
		t.Error("/metrics missing registered extra collector")
	}
	if body, ct := get("/metrics.json"); ct != "application/json" || !strings.Contains(body, `"probe.sent"`) {
		t.Errorf("/metrics.json = %q (%s)", body, ct)
	}

	addr := d.Addr()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The port is free again: a fresh server can take the exact address.
	d2, err := ServeDebug(addr, NewRegistry())
	if err != nil {
		t.Fatalf("rebinding %s after Close: %v", addr, err)
	}
	defer d2.Close()
	var nilD *DebugServer
	if err := nilD.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	nilD.RegisterProm(PromCollectorFunc(func(*PromWriter) {}))
}

// TestPromWriterErrLatch: the first write error sticks and Flush reports it.
func TestPromWriterErrLatch(t *testing.T) {
	pw := NewPromWriter(failWriter{})
	for i := 0; i < 10000; i++ { // enough to overflow the bufio buffer
		pw.Sample("x", float64(i))
	}
	if err := pw.Flush(); err == nil {
		t.Error("Flush after write error = nil, want error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("sink closed") }
