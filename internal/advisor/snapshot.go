package advisor

import (
	"encoding/json"
	"errors"
	"io"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
)

// nLevels is the width of each prefix's flat quantile row:
// len(stats.StandardPercentiles), one level per stats.Quantiles field.
const nLevels = 7

// Lookup errors. Both are sentinels so the hot path allocates nothing.
var (
	// ErrBadLevel reports a capture/coverage level outside the standard
	// percentile set — caller error, an HTTP 400.
	ErrBadLevel = errors.New("advisor: capture/coverage must be a standard percentile (1, 50, 80, 90, 95, 98, 99)")
	// ErrNoData reports that neither the prefix nor the population has any
	// samples — "no advice", an HTTP 404, distinct from a 0s timeout.
	ErrNoData = errors.New("advisor: no data")
)

// Source says which distribution an advice value came from.
type Source uint8

// Advice sources.
const (
	// SourcePrefix: the destination's own /24 had samples.
	SourcePrefix Source = iota + 1
	// SourcePopulation: the /24 was unknown; the advice is the Table 2
	// aggregate over all prefixes ("capture p% of pings from r% of
	// prefixes").
	SourcePopulation
)

// String names the source for JSON responses.
func (s Source) String() string {
	switch s {
	case SourcePrefix:
		return "prefix"
	case SourcePopulation:
		return "population"
	}
	return "none"
}

// Advice is one timeout recommendation.
type Advice struct {
	// Timeout is the recommended wait: a conservative (upper-bounded)
	// estimate of the requested quantile.
	Timeout time.Duration
	// Source says whether the prefix's own data or the population fallback
	// produced the value.
	Source Source
	// Samples backs the advice: the prefix's sample count for SourcePrefix,
	// the contributing prefix count for SourcePopulation.
	Samples uint64
	// Epoch identifies the snapshot that answered — every field of one
	// response is consistent with exactly this epoch.
	Epoch uint64
	// Stale reports that the destination's prefix has data but its newest
	// sample is older than the advisor's staleness TTL, so the answer
	// degraded to the population fallback: per-prefix delay regimes shift
	// on the scale of days (the COVID latency study, PAPERS.md), and a
	// degraded-but-honest answer beats a confidently-wrong stale one.
	Stale bool
}

// Snapshot is an immutable, atomically swappable view of the store: the
// sorted prefix index, each prefix's standard-percentile timeouts in one
// flat array (prefix rank × level index), and the population fallback
// matrix. Readers share snapshots freely; nothing in one ever mutates.
type Snapshot struct {
	epoch    uint64
	prefixes []ipaddr.Prefix24 // sorted ascending; the store's rank order, shared and never written
	samples  []uint64          // per prefix rank
	updated  []int64           // per prefix rank: newest sample's wall time, unix ns
	quants   []time.Duration   // rank*nLevels + levelIndex
	matrix   stats.TimeoutMatrix
	total    uint64

	// Staleness TTL, stamped by Advisor.Publish (zero when the snapshot is
	// built directly off a store): a prefix whose newest sample is older
	// than ttl answers from the population fallback with Advice.Stale set.
	// clock is the publish-time clock so lookups stay a pure read of
	// immutable state plus one time call — no locks, no allocations.
	ttl   int64
	clock func() int64
}

// Snapshot builds an immutable advice snapshot of the store's current
// sketches, stamped with epoch. The build is deterministic: prefixes come in
// the store's rank order, quantiles are pure functions of bucket counts, and
// the population matrix aggregates the per-prefix vectors with the Table 2
// quantile-of-quantiles discipline. Each prefix's row of standard-level
// quantiles is read in one pass over its buckets, as bucket indices that
// fill the flat quants array and count into the matrix's per-level
// histograms. The snapshot shares the rank order with the store and with
// every other snapshot built while the prefix set is unchanged.
func (s *Store) Snapshot(epoch uint64) *Snapshot {
	prefixes := s.rankOrder()
	snap := &Snapshot{
		epoch:    epoch,
		prefixes: prefixes,
		samples:  make([]uint64, len(prefixes)),
		updated:  make([]int64, len(prefixes)),
		quants:   make([]time.Duration, len(prefixes)*nLevels),
	}
	var hist [nLevels][numBuckets]uint64 // hist[c][i]: prefixes whose level-c quantile is bucket i
	var row [nLevels]int
	for r, p := range prefixes {
		sk := s.sketches[p]
		levelBuckets(sk.counts, sk.n, &row)
		for c, i := range row {
			snap.quants[r*nLevels+c] = bucketValue(i)
			hist[c][i]++
		}
		snap.samples[r] = sk.n
		snap.updated[r] = s.updated[p]
		snap.total += sk.n
	}
	snap.matrix = populationMatrix(&hist, uint64(len(prefixes)))
	return snap
}

// populationMatrix is stats.BuildTimeoutMatrix over n prefix rows counted
// into hist. Every row value is a ladder bound, and bucketValue is monotone
// in the bucket index, so column c sorted is hist[c] read in bucket order,
// and its nearest-rank percentile (stats.Percentile's rule) is the bucket
// where the cumulative count reaches the rank: the same one-pass read as a
// sketch's row, with no column to fill or sort. stats.BuildTimeoutMatrix
// stays the oracle (TestPopulationMatrixMatchesBuildTimeoutMatrix).
func populationMatrix(hist *[nLevels][numBuckets]uint64, n uint64) stats.TimeoutMatrix {
	m := stats.TimeoutMatrix{
		Levels:    stats.StandardPercentiles,
		Cell:      make([][]time.Duration, nLevels),
		Addresses: int(n),
	}
	cells := make([]time.Duration, nLevels*nLevels)
	for r := range m.Cell {
		m.Cell[r] = cells[r*nLevels : (r+1)*nLevels : (r+1)*nLevels]
	}
	if n == 0 {
		return m
	}
	var rows [nLevels]int
	for c := range hist {
		levelBuckets(hist[c][:], n, &rows)
		for r, i := range rows {
			m.Cell[r][c] = bucketValue(i)
		}
	}
	return m
}

// Epoch returns the snapshot's publish epoch.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Prefixes returns how many /24 prefixes the snapshot has advice for.
func (s *Snapshot) Prefixes() int { return len(s.prefixes) }

// Samples returns the total sample count across all prefixes.
func (s *Snapshot) Samples() uint64 { return s.total }

// Matrix returns the population fallback matrix ("capture p% of pings from
// r% of prefixes").
func (s *Snapshot) Matrix() stats.TimeoutMatrix { return s.matrix }

// rank resolves a prefix to its index in the sorted prefix array.
func (s *Snapshot) rank(p ipaddr.Prefix24) (int, bool) {
	lo, hi := 0, len(s.prefixes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.prefixes[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.prefixes) && s.prefixes[lo] == p {
		return lo, true
	}
	return 0, false
}

// Lookup answers one advice query against this snapshot: the timeout that
// captures the capture-th percentile of responses from addr's /24, or —
// when the prefix has no data, or its data is older than the staleness TTL —
// the population matrix cell at (coverage, capture). Levels must be standard
// percentiles, matched with the same epsilon tolerance as
// stats.TimeoutMatrix (computed levels like 80.00000000000001 resolve rather
// than erroring). The path is lock-free and allocation-free: a binary search
// to the prefix rank, flat array indexing, and (with a TTL configured) one
// clock read.
func (s *Snapshot) Lookup(addr ipaddr.Addr, capture, coverage float64) (Advice, error) {
	ci, ok := stats.LevelIndex(stats.StandardPercentiles, capture)
	if !ok {
		return Advice{}, ErrBadLevel
	}
	ri, ok := stats.LevelIndex(stats.StandardPercentiles, coverage)
	if !ok {
		return Advice{}, ErrBadLevel
	}
	stale := false
	if r, ok := s.rank(addr.Prefix()); ok {
		// A zero freshness stamp means "unknown", which never goes stale;
		// every store since the stamps were introduced writes real ones.
		if s.ttl > 0 && s.updated[r] != 0 && s.clock()-s.updated[r] > s.ttl {
			stale = true
		} else {
			return Advice{
				Timeout: s.quants[r*nLevels+ci],
				Source:  SourcePrefix,
				Samples: s.samples[r],
				Epoch:   s.epoch,
			}, nil
		}
	}
	if s.matrix.Addresses == 0 {
		return Advice{Epoch: s.epoch, Stale: stale}, ErrNoData
	}
	return Advice{
		Timeout: s.matrix.Cell[ri][ci],
		Source:  SourcePopulation,
		Samples: uint64(s.matrix.Addresses),
		Epoch:   s.epoch,
		Stale:   stale,
	}, nil
}

// snapshotJSON is the serialized snapshot: a pure function of the
// snapshot's contents with fully ordered fields and arrays, so fixed-seed
// sequential and sharded ingests encode byte-identically — the advisor's
// shard-invariance contract, checked by TestAdvisorShardInvariance.
type snapshotJSON struct {
	Epoch        uint64       `json:"epoch"`
	Levels       []float64    `json:"levels"`
	TotalSamples uint64       `json:"total_samples"`
	Prefixes     []prefixJSON `json:"prefixes"`
	// PopulationNS is the fallback matrix in nanoseconds, row (coverage)
	// major over Levels.
	PopulationNS [][]int64 `json:"population_timeout_ns"`
}

// prefixJSON is one prefix row of the serialized snapshot.
type prefixJSON struct {
	Prefix    string  `json:"prefix"`
	Samples   uint64  `json:"samples"`
	TimeoutNS []int64 `json:"timeouts_ns"` // over Levels
}

// WriteJSON writes the snapshot as indented JSON, deterministically.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	out := snapshotJSON{
		Epoch:        s.epoch,
		Levels:       stats.StandardPercentiles,
		TotalSamples: s.total,
		Prefixes:     make([]prefixJSON, len(s.prefixes)),
	}
	for r, p := range s.prefixes {
		ns := make([]int64, nLevels)
		for c := range ns {
			ns[c] = int64(s.quants[r*nLevels+c])
		}
		out.Prefixes[r] = prefixJSON{Prefix: p.String(), Samples: s.samples[r], TimeoutNS: ns}
	}
	out.PopulationNS = make([][]int64, len(s.matrix.Cell))
	for ri, row := range s.matrix.Cell {
		out.PopulationNS[ri] = make([]int64, len(row))
		for ci, d := range row {
			out.PopulationNS[ri][ci] = int64(d)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
