// Package advisor is the timeout-recommendation serving layer: the paper's
// actual deliverable — "wait this long for this destination" (§8, Table 2) —
// productized as a long-running service. It ingests probe/record streams
// (survey datasets or the sharded sim engine) into compact per-/24 quantile
// sketches, and answers
//
//	GET /timeout?addr=X&capture=p&coverage=r
//
// over HTTP/JSON: the minimum timeout that would have captured p% of the
// responses observed from X's /24 prefix, falling back to the population
// aggregate ("capture p% of pings from r% of prefixes", the Table 2
// discipline) when the prefix has no data.
//
// State is keyed by /24 prefix rather than per address — the "Less is More"
// aggregation insight (PAPERS.md): destinations in one /24 share path and
// anomaly behavior, so prefix sketches need orders of magnitude less memory
// while advice still tracks per-destination regimes. Sketches are fixed-size
// bucket-count arrays, mergeable across shards by pure addition with the
// same commutative discipline as obs.Registry.Merge, so a sharded ingest
// publishes advice byte-identical to a sequential one.
//
// The read path is lock-free: Publish builds an immutable Snapshot — sorted
// prefix index, flat quantile arrays, no maps — and swaps it in atomically
// (epoch swap). Readers resolve a prefix by binary search to a rank and
// index flat arrays from there; a lookup performs zero allocations and every
// response is consistent with exactly one published epoch, which is also how
// regime shifts over time (the COVID latency study in PAPERS.md) surface:
// each re-publish is a new epoch whose advice reflects the latest window.
package advisor

import (
	"time"

	"timeouts/internal/stats"
)

// The advice bucket ladder: a 1-1.5-2-3-5-7 subdivision of each decade from
// 100 µs through 100 s, capped at 1000 s. It is finer than the obs metric
// ladder (whose job is threshold reporting, not advice) but still compact:
// numBuckets uint64 counts per /24 prefix, fixed, mergeable by addition.
// Quantile reads return the upper bound of the target bucket, so advice is
// always conservative — a recommended timeout is never below the true
// quantile it names.
var bucketBounds = buildBounds()

// maxAdvice caps recommendations: samples beyond the last boundary land in
// the overflow bucket, and a quantile that falls there reads as maxAdvice.
// The paper's own tail tops out at 145 s; 1000 s leaves a decade of slack.
var maxAdvice = bucketBounds[len(bucketBounds)-1]

// numBuckets counts the sketch's buckets: one per boundary (seven decades
// of six, plus the 1000 s cap) and the overflow bucket. buildBounds fills
// exactly numBuckets-1 bounds, so a ladder edit that changes the count
// fails at package init.
const numBuckets = 7*6 + 1 + 1

func buildBounds() (out [numBuckets - 1]time.Duration) {
	mults := []int64{10, 15, 20, 30, 50, 70} // 1, 1.5, 2, 3, 5, 7 in tenths
	i := 0
	for decade := 10 * time.Microsecond; decade <= 10*time.Second; decade *= 10 {
		for _, m := range mults {
			out[i] = decade * time.Duration(m)
			i++
		}
	}
	out[i] = 1000 * time.Second
	if i != len(out)-1 {
		panic("advisor: bucket ladder does not fill numBuckets")
	}
	return out
}

// Sketch is one prefix's latency distribution in bounded space: a count per
// ladder bucket. Sketches merge by bucket addition — commutative and
// associative, like obs histogram merges — which is what makes per-shard
// ingest order-independent and its published advice deterministic.
type Sketch struct {
	n      uint64
	counts []uint64
}

// NewSketch creates an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{counts: make([]uint64, numBuckets)}
}

// bucketOf returns the ladder bucket for one sample. The ladder is short
// and most real samples are sub-second, so the linear scan exits early.
func bucketOf(d time.Duration) int {
	for i, b := range bucketBounds[:] { // a slice: ranging the array would copy it
		if d <= b {
			return i
		}
	}
	return len(bucketBounds)
}

// Add folds in one latency sample.
func (s *Sketch) Add(d time.Duration) { s.AddN(d, 1) }

// AddN folds in n identical samples (batched deliveries).
func (s *Sketch) AddN(d time.Duration, n uint64) {
	if n == 0 {
		return
	}
	s.counts[bucketOf(d)] += n
	s.n += n
}

// N returns the sample count.
func (s *Sketch) N() uint64 { return s.n }

// Merge adds other's buckets into s.
func (s *Sketch) Merge(other *Sketch) {
	for i, c := range other.counts {
		s.counts[i] += c
	}
	s.n += other.n
}

// nearestRank returns the 1-based nearest rank of the p-th percentile
// among n > 0 samples: ceil(p/100·n), clamped to [1, n] — stats.Percentile's
// rank rule. It is monotone in p, which is what lets levelBuckets read
// ascending levels in one pass. The ceiling goes through int64, which
// converts in one instruction where uint64 needs a branch; both agree for
// n < 2^63.
func nearestRank(p float64, n uint64) uint64 {
	x := p / 100 * float64(n)
	target := int64(x)
	if float64(target) < x || target == 0 {
		target++ // ceil, and at least rank 1
	}
	return min(uint64(target), n)
}

// bucketValue is the advice a rank landing in bucket i reads as: the
// bucket's upper boundary, or maxAdvice for the overflow bucket.
func bucketValue(i int) time.Duration {
	if i == len(bucketBounds) {
		return maxAdvice
	}
	return bucketBounds[i]
}

// Quantile returns a conservative estimate of the p-th percentile
// (0 < p <= 100): the upper boundary of the nearest-rank bucket, clamped to
// maxAdvice when the rank lands in the overflow bucket. ok is false only
// when the sketch is empty — "no data", distinct from a genuine zero.
func (s *Sketch) Quantile(p float64) (d time.Duration, ok bool) {
	if s.n == 0 {
		return 0, false
	}
	target := nearestRank(p, s.n)
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= target {
			return bucketValue(i), true
		}
	}
	return maxAdvice, true // unreachable: cum == n >= target
}

// levelBuckets fills row (one slot per stats.StandardPercentiles level)
// with the bucket each level's nearest rank lands in, among the n > 0
// values counted into counts, in a single pass: the levels ascend, so their
// nearest ranks do too, and each is read as the cumulative count first
// reaches it. Over a sketch's buckets the row is the sketch's Quantile at
// every standard level (through bucketValue); over a histogram of those
// rows it is a column of the population matrix.
func levelBuckets(counts []uint64, n uint64, row *[nLevels]int) {
	lv := 0
	target := nearestRank(stats.StandardPercentiles[0], n)
	var cum uint64
	for i, c := range counts {
		cum += c
		for cum >= target {
			row[lv] = i
			if lv++; lv == nLevels {
				return
			}
			target = nearestRank(stats.StandardPercentiles[lv], n)
		}
	}
}
