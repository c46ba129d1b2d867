package obs

// Prometheus text exposition (format 0.0.4), stdlib only. The paper's core
// lesson is that operators pick timeouts blind because nobody watches the
// latency tail; a JSON snapshot behind a debug port is a one-off look, while
// a scrapeable /metrics endpoint is the continuous, longitudinal view that
// makes tail shifts visible (the COVID latency study ran for months, not
// minutes). This file renders a Registry — counters, max-gauges, and the
// paper-threshold histograms — in the text format every scraper speaks,
// preserving the repository's deterministic/diagnostic class split as a
// `class` label so a dashboard can tell seed-determined series from
// execution-strategy ones at a glance.
//
// Encoding rules (golden-tested in promtext_test.go):
//
//   - metric names are sanitized to [a-zA-Z0-9_:] with every other rune
//     mapped to '_' (registry names use dots: advisor.http.shed →
//     advisor_http_shed);
//   - families are emitted in sorted sanitized-name order, each preceded by
//     exactly one # TYPE header;
//   - histograms become <name>_seconds families: cumulative _bucket series
//     over the fixed Boundaries ladder with le rendered in seconds, a +Inf
//     bucket equal to _count, then _sum (seconds) and _count;
//   - label values escape \, ", and newline per the exposition spec.

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// PromContentType is the Content-Type of version 0.0.4 text exposition.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromCollector contributes scrape-time series to a /metrics response —
// values that are better read at scrape time than mirrored into a registry
// (snapshot age, ingest queue depth, watchdog quantiles, Go runtime state).
type PromCollector interface {
	CollectProm(w *PromWriter)
}

// PromCollectorFunc adapts a function to PromCollector.
type PromCollectorFunc func(*PromWriter)

// CollectProm calls f.
func (f PromCollectorFunc) CollectProm(w *PromWriter) { f(w) }

// PromWriter builds one text exposition response. It deduplicates # TYPE
// headers per family and carries the first write error, so collectors can
// emit unconditionally.
type PromWriter struct {
	bw    *bufio.Writer
	typed map[string]bool
	err   error
}

// NewPromWriter wraps w for exposition writing; call Flush when done.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{bw: bufio.NewWriter(w), typed: make(map[string]bool)}
}

// Flush flushes buffered output and returns the first error encountered.
func (p *PromWriter) Flush() error {
	if p.err != nil {
		return p.err
	}
	return p.bw.Flush()
}

// write appends s, latching the first error.
func (p *PromWriter) write(s string) {
	if p.err == nil {
		_, p.err = p.bw.WriteString(s)
	}
}

// Type emits the family's # TYPE header once; repeats are ignored, so two
// collectors contributing series to one family cannot produce an invalid
// double header.
func (p *PromWriter) Type(family, typ string) {
	if p.typed[family] {
		return
	}
	p.typed[family] = true
	p.write("# TYPE ")
	p.write(family)
	p.write(" ")
	p.write(typ)
	p.write("\n")
}

// Sample emits one sample line: name{k="v",...} value. Label names arrive
// sanitized by construction (they are code literals); label values are
// escaped. kv alternates key, value.
func (p *PromWriter) Sample(name string, value float64, kv ...string) {
	p.write(name)
	if len(kv) > 0 {
		p.write("{")
		for i := 0; i+1 < len(kv); i += 2 {
			if i > 0 {
				p.write(",")
			}
			p.write(kv[i])
			p.write("=\"")
			p.write(escapeLabel(kv[i+1]))
			p.write("\"")
		}
		p.write("}")
	}
	p.write(" ")
	p.write(formatValue(value))
	p.write("\n")
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders a sample value: integers without a mantissa (the
// common case — counters and bucket counts), everything else in shortest
// round-trip form, infinities as +Inf/-Inf.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promName sanitizes a registry metric name into the exposition charset:
// [a-zA-Z0-9_:], everything else mapped to '_', with a leading '_' when the
// name would otherwise start with a digit.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			b.WriteByte('_')
			continue
		}
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// classLabel names a metric's determinism class for the `class` label.
func classLabel(diag bool) string {
	if diag {
		return "diagnostic"
	}
	return "deterministic"
}

// formatSeconds renders a duration as a seconds float for `le` bounds.
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// CollectProm renders every metric in the registry. Counters and gauges
// become one-sample families labeled with their determinism class;
// histograms become <name>_seconds histogram families over the fixed
// Boundaries ladder. Families are sorted by sanitized name so the output is
// a pure function of the registry's contents. Nil-safe.
func (r *Registry) CollectProm(w *PromWriter) {
	if r == nil {
		return
	}
	type family struct {
		name string
		emit func()
	}
	var fams []family

	r.mu.Lock()
	for name, c := range r.counters {
		n, c := promName(name), c
		fams = append(fams, family{n, func() {
			w.Type(n, "counter")
			w.Sample(n, float64(c.Value()), "class", classLabel(c.diag))
		}})
	}
	for name, g := range r.gauges {
		n, g := promName(name), g
		fams = append(fams, family{n, func() {
			w.Type(n, "gauge")
			w.Sample(n, float64(g.Value()), "class", classLabel(g.diag))
		}})
	}
	for name, h := range r.hists {
		n, h := promName(name)+"_seconds", h
		fams = append(fams, family{n, func() { h.collectProm(w, n) }})
	}
	r.mu.Unlock()

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.emit()
	}
}

// collectProm emits one histogram family: cumulative buckets, +Inf, sum,
// count. Bucket loads race benignly with concurrent Observes — each load is
// atomic, and cumulation can only undercount the newest samples, never
// invert monotonicity, because buckets are read low-to-high exactly once.
func (h *Histogram) collectProm(w *PromWriter, famName string) {
	cl := classLabel(h.diag)
	w.Type(famName, "histogram")
	var cum uint64
	for i, b := range Boundaries {
		cum += h.buckets[i].Load()
		w.Sample(famName+"_bucket", float64(cum), "class", cl, "le", formatSeconds(b))
	}
	cum += h.buckets[len(Boundaries)].Load()
	w.Sample(famName+"_bucket", float64(cum), "class", cl, "le", "+Inf")
	w.Sample(famName+"_sum", time.Duration(h.sum.Load()).Seconds(), "class", cl)
	w.Sample(famName+"_count", float64(cum), "class", cl)
}

// WritePromText writes one complete text exposition: the registry first,
// then each extra collector in order. This is the body of every /metrics
// response (PromHandler) and directly testable against goldens.
func WritePromText(w io.Writer, reg *Registry, extra ...PromCollector) error {
	pw := NewPromWriter(w)
	reg.CollectProm(pw)
	for _, c := range extra {
		if c != nil {
			c.CollectProm(pw)
		}
	}
	return pw.Flush()
}

// PromHandler serves GET /metrics: the registry plus any extra collectors as
// Prometheus 0.0.4 text. Every request renders a fresh scrape — the registry
// is live, not snapshotted — so the handler is safe to mount for the life of
// the process.
func PromHandler(reg *Registry, extra ...PromCollector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		WritePromText(w, reg, extra...)
	})
}

// gcPauseLadder is the fixed bucket ladder (seconds) the runtime's
// fine-grained GC pause histogram is condensed onto: 10 µs to 1 s by
// decades. GC pauses beyond a second are the "surprisingly high delay" of
// the process itself — exactly the tail a timeout-advice service must see
// in its own telemetry.
var gcPauseLadder = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// RuntimeCollector contributes Go runtime series to /metrics: goroutine
// count, heap bytes, GC cycle count, and the GC pause ladder. Values come
// from runtime/metrics at scrape time; the sample slice is reused under a
// lock so concurrent scrapes don't race on it.
type RuntimeCollector struct {
	mu      sync.Mutex
	samples []metrics.Sample
}

// NewRuntimeCollector creates a collector for the standard runtime series.
func NewRuntimeCollector() *RuntimeCollector {
	return &RuntimeCollector{samples: []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/pauses:seconds"},
	}}
}

// CollectProm reads the runtime metrics and emits them.
func (c *RuntimeCollector) CollectProm(w *PromWriter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	metrics.Read(c.samples)
	for _, s := range c.samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			w.Type("go_goroutines", "gauge")
			w.Sample("go_goroutines", float64(s.Value.Uint64()))
		case "/memory/classes/heap/objects:bytes":
			w.Type("go_heap_objects_bytes", "gauge")
			w.Sample("go_heap_objects_bytes", float64(s.Value.Uint64()))
		case "/memory/classes/total:bytes":
			w.Type("go_memory_total_bytes", "gauge")
			w.Sample("go_memory_total_bytes", float64(s.Value.Uint64()))
		case "/gc/cycles/total:gc-cycles":
			w.Type("go_gc_cycles_total", "counter")
			w.Sample("go_gc_cycles_total", float64(s.Value.Uint64()))
		case "/gc/pauses:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				emitRuntimeHistogram(w, "go_gc_pause_seconds", s.Value.Float64Histogram())
			}
		}
	}
}

// emitRuntimeHistogram condenses a runtime Float64Histogram onto the fixed
// gcPauseLadder and emits it as a histogram family. The sum is a
// conservative upper-bound reconstruction from bucket upper edges (the
// runtime does not expose an exact sum), clamped to the ladder's top for
// the open-ended bucket.
func emitRuntimeHistogram(w *PromWriter, famName string, h *metrics.Float64Histogram) {
	counts := make([]uint64, len(gcPauseLadder)+1)
	var total uint64
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		ub := h.Buckets[i+1] // upper edge of runtime bucket i
		j := len(gcPauseLadder)
		for k, lb := range gcPauseLadder {
			if ub <= lb {
				j = k
				break
			}
		}
		counts[j] += n
		total += n
		edge := ub
		if math.IsInf(edge, 1) || edge > gcPauseLadder[len(gcPauseLadder)-1] {
			edge = gcPauseLadder[len(gcPauseLadder)-1]
		}
		sum += edge * float64(n)
	}
	w.Type(famName, "histogram")
	var cum uint64
	for i, lb := range gcPauseLadder {
		cum += counts[i]
		w.Sample(famName+"_bucket", float64(cum), "le", strconv.FormatFloat(lb, 'g', -1, 64))
	}
	cum += counts[len(gcPauseLadder)]
	w.Sample(famName+"_bucket", float64(cum), "le", "+Inf")
	w.Sample(famName+"_sum", sum)
	w.Sample(famName+"_count", float64(total))
}
