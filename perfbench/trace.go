package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/simnet"
	"timeouts/internal/survey"
)

// sampleEvery is the timing rate at the per-probe and per-record seams:
// every call is counted, one in sampleEvery is timed. Timing every
// netmodel Respond call raised a 2^22-address scan from 4.7 s to 7.4 s.
const sampleEvery = 64

// sampleCap clamps one timed call. A sample is scaled by sampleEvery, so a
// call that was descheduled for milliseconds (hypervisor steal, another
// process) would otherwise inflate its seam's estimate by sampleEvery times
// that pause; no call at these seams legitimately takes this long.
const sampleCap = 50 * time.Microsecond

// span is one timed interval of the traced run. Times are nanoseconds since
// the tracer's epoch; Parent indexes the tracer's spans, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// seam is one layer boundary crossed per probe or per record: calls are
// counted exactly and one call in sampleEvery is timed. Its estimated total
// (sampled mean x calls) counts as child time of the span it runs in.
type seam struct {
	Name      string `json:"name"`
	Parent    int    `json:"parent"`
	Calls     uint64 `json:"calls"`
	Items     uint64 `json:"items"` // seam-specific: deliveries returned
	Sampled   uint64 `json:"sampled"`
	SampledNS int64  `json:"sampled_ns"`
	overhead  float64
}

// tracer keeps spans and seams in memory; write saves them at exit. A nil
// tracer records nothing, so the untraced twin of a run executes the same
// composition with no wrappers and no spans.
type tracer struct {
	epoch    time.Time
	spans    []span
	open     []int
	seams    []*seam
	overhead float64 // ns one sampled timing adds to what it measures
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	// Calibrate the cost of an empty sampled timing, to subtract it from
	// every sample.
	const n = 1 << 16
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	t.overhead = float64(sum) / n
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
}

// seam creates a seam whose calls run inside the innermost open span.
func (t *tracer) seam(name string) *seam {
	if t == nil {
		return nil
	}
	s := &seam{Name: name, Parent: -1, overhead: t.overhead}
	if len(t.open) > 0 {
		s.Parent = t.open[len(t.open)-1]
	}
	t.seams = append(t.seams, s)
	return s
}

// within re-parents s under span id (the span its calls actually run in).
func (s *seam) within(id int) {
	if s != nil {
		s.Parent = id
	}
}

func (s *seam) sample(d time.Duration) {
	s.Sampled++
	s.SampledNS += int64(min(d, sampleCap))
}

// mean is the estimated ns per call, timer cost removed.
func (s *seam) mean() float64 {
	if s == nil || s.Sampled == 0 {
		return 0
	}
	return max(float64(s.SampledNS)/float64(s.Sampled)-s.overhead, 0)
}

// total is the estimated time spent inside the seam.
func (s *seam) total() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.mean() * float64(s.Calls))
}

// dur is span id's duration.
func (t *tracer) dur(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// self is span id's duration minus what its child spans and seams cover.
func (t *tracer) self(id int) time.Duration {
	d := t.dur(id)
	for i, s := range t.spans {
		if s.Parent == id {
			d -= t.dur(i)
		}
	}
	for _, s := range t.seams {
		if s.Parent == id {
			d -= s.total()
		}
	}
	return d
}

// reconcile sums the self times of root's subtree (spans and seams) and
// returns that sum and the most negative self time in it. A negative self
// time means a seam estimate overran the span it runs in.
func (t *tracer) reconcile(root int) (sum, worst time.Duration) {
	in := map[int]bool{root: true}
	for i, s := range t.spans { // parents precede children
		if in[s.Parent] {
			in[i] = true
		}
	}
	worst = t.dur(root)
	for i := range t.spans {
		if in[i] {
			self := t.self(i)
			sum += self
			worst = min(worst, self)
		}
	}
	for _, s := range t.seams {
		if in[s.Parent] {
			sum += s.total()
		}
	}
	return sum, worst
}

// write saves the spans and seams as JSON.
func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(struct {
		Spans []span  `json:"spans"`
		Seams []*seam `json:"seams"`
	}{t.spans, t.seams}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedFabric wraps the simnet.Fabric seam (the netmodel).
type tracedFabric struct {
	inner simnet.Fabric
	s     *seam
}

func (f *tracedFabric) Respond(from ipaddr.Addr, at simnet.Time, pkt []byte) []simnet.Delivery {
	f.s.Calls++
	var d []simnet.Delivery
	if f.s.Calls%sampleEvery == 0 {
		t0 := time.Now()
		d = f.inner.Respond(from, at, pkt)
		f.s.sample(time.Since(t0))
	} else {
		d = f.inner.Respond(from, at, pkt)
	}
	f.s.Items += uint64(len(d))
	return d
}

// wrapFabric returns f wrapped in seam s, or f itself when untraced.
func wrapFabric(f simnet.Fabric, s *seam) simnet.Fabric {
	if s == nil {
		return f
	}
	return &tracedFabric{inner: f, s: s}
}

// flushWriter is a RecordWriter that survey.Run flushes at the end.
type flushWriter interface {
	survey.RecordWriter
	Flush() error
}

// tracedWriter wraps the survey.RecordWriter seam (the dataset writer).
type tracedWriter struct {
	inner flushWriter
	s     *seam
}

func (w *tracedWriter) Write(r survey.Record) error {
	w.s.Calls++
	if w.s.Calls%sampleEvery != 0 {
		return w.inner.Write(r)
	}
	t0 := time.Now()
	err := w.inner.Write(r)
	w.s.sample(time.Since(t0))
	return err
}

func (w *tracedWriter) Flush() error { return w.inner.Flush() }

func wrapWriter(w flushWriter, s *seam) flushWriter {
	if s == nil {
		return w
	}
	return &tracedWriter{inner: w, s: s}
}

// tracedSource wraps the survey.RecordSource seam (the dataset reader).
type tracedSource struct {
	inner survey.RecordSource
	s     *seam
}

func (r *tracedSource) Read() (survey.Record, error) {
	r.s.Calls++
	if r.s.Calls%sampleEvery != 0 {
		return r.inner.Read()
	}
	t0 := time.Now()
	rec, err := r.inner.Read()
	r.s.sample(time.Since(t0))
	return rec, err
}

func wrapSource(src survey.RecordSource, s *seam) survey.RecordSource {
	if s == nil {
		return src
	}
	return &tracedSource{inner: src, s: s}
}

// processCPU is this process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocs is a heap allocation count and byte total.
type allocs struct{ n, bytes uint64 }

func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{ms.Mallocs, ms.TotalAlloc}
}

func (a allocs) since(b allocs) allocs { return allocs{a.n - b.n, a.bytes - b.bytes} }

// gcCPU reads the runtime's CPU accounting: GC CPU and busy (non-idle) CPU,
// in seconds.
type gcCPU struct{ gc, busy float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}

// frac is the GC share of busy CPU since b.
func (a gcCPU) frac(b gcCPU) float64 {
	if busy := a.busy - b.busy; busy > 0 {
		return (a.gc - b.gc) / busy
	}
	return 0
}
