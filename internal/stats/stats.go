// Package stats provides the statistical machinery the study's analysis
// rests on: nearest-rank percentiles over latency samples, CDF/CCDF point
// sets for the paper's figures, histograms, exponentially weighted moving
// averages (used by the broadcast-responder filter), and the
// quantile-of-quantiles aggregation that produces the headline timeout
// matrix (Table 2).
//
// Latencies are time.Duration throughout; a Duration is an int64 nanosecond
// count, comfortably covering the sub-millisecond to many-minutes range the
// paper observes.
package stats

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Percentile returns the p-th percentile (0 < p <= 100) of sorted using the
// nearest-rank method: the smallest value such that at least p percent of
// samples are <= it. The slice must be sorted ascending and non-empty.
// Nearest-rank matches how the paper reports "the 95th percentile latency of
// an address": an actual observed sample, never an interpolated value.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// PercentileFloat is Percentile over float64 samples.
func PercentileFloat(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: PercentileFloat of empty slice")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// SortDurations sorts samples ascending in place and returns the slice.
func SortDurations(samples []time.Duration) []time.Duration {
	slices.Sort(samples)
	return samples
}

// Quantiles holds the characteristic per-address percentiles the paper
// reports: 1st, median, 80th, 90th, 95th, 98th and 99th.
type Quantiles struct {
	P1, P50, P80, P90, P95, P98, P99 time.Duration
}

// StandardPercentiles are the percentile levels used throughout the paper.
var StandardPercentiles = []float64{1, 50, 80, 90, 95, 98, 99}

// ComputeQuantiles sorts samples in place and extracts the standard
// percentile set.
func ComputeQuantiles(samples []time.Duration) Quantiles {
	SortDurations(samples)
	return Quantiles{
		P1:  Percentile(samples, 1),
		P50: Percentile(samples, 50),
		P80: Percentile(samples, 80),
		P90: Percentile(samples, 90),
		P95: Percentile(samples, 95),
		P98: Percentile(samples, 98),
		P99: Percentile(samples, 99),
	}
}

// At returns the quantile value for one of the standard percentile levels.
func (q Quantiles) At(p float64) time.Duration {
	switch p {
	case 1:
		return q.P1
	case 50:
		return q.P50
	case 80:
		return q.P80
	case 90:
		return q.P90
	case 95:
		return q.P95
	case 98:
		return q.P98
	case 99:
		return q.P99
	}
	panic("stats: At called with a non-standard percentile")
}

// CDFPoint is one point of an empirical CDF: fraction Frac of samples were
// <= Value.
type CDFPoint struct {
	Value time.Duration
	Frac  float64
}

// CDF builds an empirical CDF over samples (sorted in place). If maxPoints
// is > 0 the curve is thinned to roughly that many points, always retaining
// the first and last sample; the thinning keeps every distinct step if there
// are fewer steps than maxPoints.
func CDF(samples []time.Duration, maxPoints int) []CDFPoint {
	if len(samples) == 0 {
		return nil
	}
	SortDurations(samples)
	n := len(samples)
	stride := 1
	if maxPoints > 0 && n > maxPoints {
		// Round the stride up: a truncated n/maxPoints understates the step
		// (e.g. n = 2*maxPoints-1 gives stride 1) and the curve comes out
		// nearly twice the requested size. Ceiling division caps the thinned
		// curve at maxPoints points before the closing point.
		stride = (n + maxPoints - 1) / maxPoints
	}
	var out []CDFPoint
	for i := 0; i < n; i += stride {
		out = append(out, CDFPoint{samples[i], float64(i+1) / float64(n)})
	}
	if last := out[len(out)-1]; last.Frac != 1 {
		out = append(out, CDFPoint{samples[n-1], 1})
	}
	return out
}

// CCDF builds the complementary CDF (fraction of samples strictly greater
// than Value) evaluated at each distinct sample value. Used for Figure 5
// (maximum duplicate responses per echo request).
func CCDF(samples []float64) []struct{ Value, Frac float64 } {
	if len(samples) == 0 {
		return nil
	}
	sort.Float64s(samples)
	n := len(samples)
	var out []struct{ Value, Frac float64 }
	for i := 0; i < n; {
		j := i
		for j < n && samples[j] == samples[i] {
			j++
		}
		out = append(out, struct{ Value, Frac float64 }{samples[i], float64(n-j) / float64(n)})
		i = j
	}
	return out
}

// FracAbove returns the fraction of samples strictly greater than threshold.
// The slice must be sorted ascending.
func FracAbove(sorted []time.Duration, threshold time.Duration) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > threshold })
	return float64(len(sorted)-i) / float64(len(sorted))
}

// EWMA is the exponentially weighted moving average used by the paper's
// broadcast-responder filter (§3.3.1): each observation is a 0/1 indicator
// and the average tracks how persistently an address behaves like a
// broadcast responder. The zero value with Alpha set is ready to use.
type EWMA struct {
	Alpha float64 // smoothing factor, e.g. 0.01 in the paper
	value float64
	max   float64
	n     int
}

// Observe folds one indicator observation into the average.
func (e *EWMA) Observe(x float64) {
	if e.n == 0 {
		e.value = x
	} else {
		e.value = e.Alpha*x + (1-e.Alpha)*e.value
	}
	e.n++
	if e.value > e.max {
		e.max = e.value
	}
}

// Value returns the current average.
func (e *EWMA) Value() float64 { return e.value }

// Max returns the maximum the average ever reached; the paper's filter marks
// addresses whose maximum exceeds a threshold.
func (e *EWMA) Max() float64 { return e.max }

// Count returns how many observations have been folded in.
func (e *EWMA) Count() int { return e.n }
