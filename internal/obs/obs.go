// Package obs is the measurement system's own measurement system: a
// lightweight, dependency-free observability layer — counters, gauges,
// log-scale latency histograms, sim-time-aware span tracing, and structured
// run manifests — threaded through the probing and analysis stack.
//
// The paper's core claim is distributional (5% of pings exceed 5 s, 1%
// exceed 145 s), so trusting the reproduction means being able to watch the
// simulator produce those tails, not just read the final report. The layer
// therefore has one non-negotiable property, inherited from the rest of the
// repository: determinism. A metric either is a pure function of the
// seed-determined event stream — in which case a fixed-seed run produces the
// same value whether it executes sequentially or on N shards — or it is a
// function of the execution strategy (queue depths, merge times, scheduler
// event counts), in which case it is *diagnostic* and excluded from the
// deterministic snapshot. Snapshot() emits only the former; diagnostics
// travel in DiagnosticSnapshot(), the trace file, and the manifest's exec
// section.
//
// Per-shard registries merge with the same commutative, order-independent
// discipline as simnet.MergeTaggedFunc: counters and histogram buckets add,
// gauges take the maximum — so the merged registry of a sharded run is
// independent of shard count and worker scheduling, and (for deterministic
// metrics) byte-identical to the sequential run's registry.
//
// Every constructor and method is nil-receiver safe: a nil *Registry hands
// out nil metrics whose methods are no-ops, so instrumented code pays
// nothing — and needs no branches — when observability is off.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. It is safe for concurrent use; the sharded
// engine instead gives each shard its own registry and merges afterwards,
// keeping hot paths uncontended.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing count. Counters merge by addition.
type Counter struct {
	v    atomic.Uint64
	diag bool
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a high-water mark: Observe keeps the maximum value seen. Gauges
// merge by maximum, which is commutative — the only gauge semantics that
// survive order-independent shard merging.
type Gauge struct {
	v    atomic.Int64
	diag bool
}

// Observe records v, keeping the maximum.
func (g *Gauge) Observe(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the maximum observed value (zero if none).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Counter returns (creating if needed) the named deterministic counter.
func (r *Registry) Counter(name string) *Counter { return r.counter(name, false) }

// DiagCounter returns the named diagnostic counter — one whose value depends
// on execution strategy (shard count, worker scheduling) rather than the
// seed-determined event stream, excluded from the deterministic snapshot.
func (r *Registry) DiagCounter(name string) *Counter { return r.counter(name, true) }

func (r *Registry) counter(name string, diag bool) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{diag: diag}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named deterministic gauge.
func (r *Registry) Gauge(name string) *Gauge { return r.gauge(name, false) }

// DiagGauge returns the named diagnostic gauge (see DiagCounter).
func (r *Registry) DiagGauge(name string) *Gauge { return r.gauge(name, true) }

func (r *Registry) gauge(name string, diag bool) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{diag: diag}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named deterministic latency
// histogram over the paper-aligned bucket boundaries.
func (r *Registry) Histogram(name string) *Histogram { return r.histogram(name, false) }

// DiagHistogram returns the named diagnostic latency histogram — one whose
// samples are wall-clock measurements of this execution (serve-path request
// durations, checkpoint write times) rather than the seed-determined event
// stream. Diagnostic histograms travel in DiagnosticSnapshot and the trace
// file, never the deterministic snapshot, so instrumenting a serving daemon
// cannot perturb the shard-invariance contract.
func (r *Registry) DiagHistogram(name string) *Histogram { return r.histogram(name, true) }

func (r *Registry) histogram(name string, diag bool) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(diag)
		r.hists[name] = h
	}
	return h
}

// Merge folds other's metrics into r: counters and histogram buckets add,
// gauges take the maximum. The operation is commutative and associative, so
// merging K per-shard registries yields the same result in any order — the
// registry analogue of simnet.MergeTaggedFunc's order-independent merge.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	other.mu.Lock()
	defer other.mu.Unlock()
	for name, c := range other.counters {
		r.counter(name, c.diag).Add(c.Value())
	}
	for name, g := range other.gauges {
		r.gauge(name, g.diag).Observe(g.Value())
	}
	for name, h := range other.hists {
		r.histogram(name, h.diag).merge(h)
	}
}

// Snapshot is a point-in-time, JSON-serializable view of a registry. All
// slices are sorted by name, so encoding a snapshot is deterministic:
// fixed-seed runs produce byte-identical snapshot JSON regardless of shard
// count (for deterministic metrics) and metric creation order.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters,omitempty"`
	Gauges     []GaugeSnap   `json:"gauges,omitempty"`
	Histograms []HistSnap    `json:"histograms,omitempty"`
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistSnap is one histogram in a snapshot. Buckets are cumulative-free
// per-bucket counts over the fixed boundary list; empty buckets are elided.
type HistSnap struct {
	Name    string       `json:"name"`
	Count   uint64       `json:"count"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// BucketSnap is one non-empty histogram bucket: samples v with
// prev boundary < v <= Le (Le == "+Inf" for the overflow bucket).
type BucketSnap struct {
	Le    string `json:"le"` // upper bound, e.g. "5s" or "+Inf"
	Count uint64 `json:"count"`
}

// Snapshot returns the deterministic metrics only — the view whose JSON
// encoding is byte-identical across sequential and sharded fixed-seed runs.
func (r *Registry) Snapshot() Snapshot { return r.snapshot(false) }

// DiagnosticSnapshot returns the diagnostic metrics only — execution-
// strategy-dependent values (queue depths, event counts, merge times) that
// are reported but carry no determinism guarantee.
func (r *Registry) DiagnosticSnapshot() Snapshot { return r.snapshot(true) }

func (r *Registry) snapshot(diag bool) Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		if c.diag == diag {
			s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
		}
	}
	for name, g := range r.gauges {
		if g.diag == diag {
			s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
		}
	}
	for name, h := range r.hists {
		if h.diag != diag {
			continue
		}
		s.Histograms = append(s.Histograms, h.snap(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON writes the snapshot as indented JSON. The output is a pure
// function of the snapshot contents.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// HistogramTail looks up the named histogram in the snapshot and returns the
// fraction of its samples strictly above the boundary: exact when bound is
// one of Boundaries. It returns 0 if the histogram is absent or empty.
func (s Snapshot) HistogramTail(name string, bound time.Duration) float64 {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.tailFraction(bound)
		}
	}
	return 0
}
