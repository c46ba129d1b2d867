package obs

import (
	"sync/atomic"
	"time"

	"timeouts/internal/stats"
)

// Boundaries is the fixed bucket boundary list shared by every latency
// histogram: roughly log-scale (a 1-2-5 ladder through the millisecond and
// second decades), with the paper's reporting thresholds — 1 s, 5 s, 60 s,
// and 145 s — as exact boundaries. Because a threshold is a boundary, the
// fraction of samples above it is an exact bucket sum, not an
// interpolation: metric output can be eyeballed directly against Table 2
// ("5% of pings exceed 5 s, 1% exceed 145 s").
var Boundaries = []time.Duration{
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second, // paper: ">1s" turtle threshold (Tables 4-5)
	2 * time.Second,
	5 * time.Second, // paper: Table 2 headline ("5% exceed 5s")
	10 * time.Second,
	30 * time.Second,
	60 * time.Second,  // paper: the §7 recommendation ("listen for 60s")
	145 * time.Second, // paper: Table 2 tail ("1% exceed 145s")
	300 * time.Second,
	1000 * time.Second,
}

// Histogram counts latency samples into the fixed Boundaries buckets:
// bucket i holds samples v with Boundaries[i-1] < v <= Boundaries[i], and a
// final overflow bucket holds everything above the last boundary. A running
// sum of all samples rides along so Prometheus exposition can emit the
// `_sum` series; sums merge by addition, the same commutative discipline as
// the buckets. Histograms over the seed-determined sample stream are
// deterministic-class; serve-path latency histograms (wall-clock request
// durations) are diagnostic-class, created via Registry.DiagHistogram.
type Histogram struct {
	buckets []atomic.Uint64 // len(Boundaries)+1; last is +Inf
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	diag    bool
}

func newHistogram(diag bool) *Histogram {
	return &Histogram{buckets: make([]atomic.Uint64, len(Boundaries)+1), diag: diag}
}

// bucketOf returns the bucket index for a sample.
func bucketOf(v time.Duration) int {
	// Linear scan: the list is short and the early (sub-second) buckets
	// catch nearly every sample in practice.
	for i, b := range Boundaries {
		if v <= b {
			return i
		}
	}
	return len(Boundaries)
}

// Observe records one latency sample.
func (h *Histogram) Observe(v time.Duration) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v))
}

// ObserveN records n identical samples (batched deliveries).
func (h *Histogram) ObserveN(v time.Duration, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.buckets[bucketOf(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(int64(n) * int64(v))
}

// Count returns the total number of samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// QuantileOver returns a conservative estimate of the p-th percentile
// (0 < p <= 100) over the bucket-wise sum of hs, without materializing a
// merged histogram: the upper boundary of the bucket holding the
// nearest-rank sample (stats.NearestRank applied to bucket counts), clamped
// to the last boundary when the rank lands in the overflow bucket. ok is
// false when the histograms are empty — "no data", never a fabricated 0.
// This is what lets the paper's own quantile machinery be pointed back at a
// service's serve-path histograms: the advisord self-watchdog folds its
// per-route × status-class histograms into one tail estimate with it.
func QuantileOver(p float64, hs ...*Histogram) (d time.Duration, ok bool) {
	var total uint64
	for _, h := range hs {
		if h != nil {
			total += h.count.Load()
		}
	}
	if total == 0 {
		return 0, false
	}
	target := stats.NearestRank(p, total)
	var cum uint64
	for i := 0; i <= len(Boundaries); i++ {
		for _, h := range hs {
			if h != nil {
				cum += h.buckets[i].Load()
			}
		}
		if cum >= target {
			if i == len(Boundaries) {
				return Boundaries[len(Boundaries)-1], true
			}
			return Boundaries[i], true
		}
	}
	return Boundaries[len(Boundaries)-1], true // unreachable: cum == total >= target
}

// merge adds other's buckets into h.
func (h *Histogram) merge(other *Histogram) {
	for i := range other.buckets {
		if n := other.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
}

// snap renders the histogram for a snapshot, eliding empty buckets.
func (h *Histogram) snap(name string) HistSnap {
	s := HistSnap{Name: name, Count: h.count.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := "+Inf"
		if i < len(Boundaries) {
			le = Boundaries[i].String()
		}
		s.Buckets = append(s.Buckets, BucketSnap{Le: le, Count: n})
	}
	return s
}

// tailFraction returns the fraction of the snapshot's samples strictly above
// bound (0 when empty). It is exact when bound is one of Boundaries, which
// the paper's reporting thresholds are by construction.
func (s HistSnap) tailFraction(bound time.Duration) float64 {
	if s.Count == 0 {
		return 0
	}
	var above uint64
	for _, b := range s.Buckets {
		if b.Le == "+Inf" {
			above += b.Count
			continue
		}
		le, err := time.ParseDuration(b.Le)
		if err == nil && le > bound {
			above += b.Count
		}
	}
	return float64(above) / float64(s.Count)
}
