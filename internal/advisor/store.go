package advisor

import (
	"io"
	"slices"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
	"timeouts/internal/survey"
)

// Store is the advisor's ingest side: per-/24 latency sketches plus core's
// attribution kernel, which recovers delayed responses — the paper's
// central trick, without which advice would miss exactly the
// surprisingly-high-delay tail it exists to serve. Memory is
// O(addresses + prefixes): each probed address holds one core.OpenProbes
// ring (the last two probes, the only ones a future unmatched response can
// still be attributed to) in a core.Blocks cell, each probed /24 a
// Blocks index entry, and each sampled /24 one fixed-size Sketch.
//
// A Store is single-writer: the sharded engine gives each shard its own
// Store and merges afterwards (Merge), exactly as it does per-shard
// obs.Registries. Publishing advice from a store while it keeps ingesting
// is the Advisor's job — Publish reads the sketches into an immutable
// snapshot, so the store itself needs no locks.
type Store struct {
	sketches map[ipaddr.Prefix24]*Sketch
	updated  map[ipaddr.Prefix24]int64 // wall time (unix ns) of each prefix's newest sample
	open     core.Blocks[core.OpenProbes]
	records  uint64
	matched  uint64
	delayed  uint64

	// ranked lists the prefixes that hold samples in ascending order: the
	// rank order of every snapshot and checkpoint of the store. Snapshots
	// share the slice, so it is replaced, never written in place; rerank
	// marks it out of date once a prefix gains its first sample (or after
	// a Merge or a checkpoint decode).
	ranked []ipaddr.Prefix24
	rerank bool

	// clock stamps per-prefix freshness; nil means the wall clock. Tests
	// and the checkpoint chaos suite inject a deterministic clock.
	clock func() int64
	// held, while holding is set, is the one clock reading RunIngest took
	// for the hand-off it is feeding: every sample in the batch carries it
	// instead of reading the clock itself.
	held    int64
	holding bool

	// Observability (nil-safe no-ops unless SetObserver installs them).
	obsRecords  *obs.Counter
	obsSamples  *obs.Counter
	obsPrefixes *obs.Gauge
}

// NewStore creates an empty ingest store.
func NewStore() *Store {
	return &Store{
		sketches: make(map[ipaddr.Prefix24]*Sketch),
		updated:  make(map[ipaddr.Prefix24]int64),
	}
}

// SetClock installs the clock that stamps per-prefix freshness (nil restores
// the wall clock). Freshness drives the staleness TTL: a snapshot built from
// this store degrades lookups for prefixes whose newest sample is older than
// the advisor's TTL to the population fallback rather than serving
// confidently-wrong stale advice.
func (s *Store) SetClock(fn func() int64) { s.clock = fn }

// now reads the store's clock.
func (s *Store) now() int64 {
	if s.clock != nil {
		return s.clock()
	}
	return time.Now().UnixNano()
}

// stamp returns the freshness stamp of a sample folded in now: the held
// hand-off reading inside RunIngest, else a fresh clock read.
func (s *Store) stamp() int64 {
	if s.holding {
		return s.held
	}
	return s.now()
}

// holdClock reads the clock once for the samples that follow, until
// releaseClock: RunIngest holds one reading per hand-off, and takes a new
// one after each publish or checkpoint, so a sample's stamp trails its
// ingest by at most one batch's consume time.
func (s *Store) holdClock() { s.held, s.holding = s.now(), true }

// releaseClock returns the store to one clock read per sample.
func (s *Store) releaseClock() { s.holding = false }

// rankOrder returns the prefixes that hold samples, ascending, re-sorting
// only after the prefix set changed. A re-sort builds a new slice: the old
// one may be a published snapshot's.
func (s *Store) rankOrder() []ipaddr.Prefix24 {
	if s.rerank {
		ranked := make([]ipaddr.Prefix24, 0, len(s.sketches))
		for p, sk := range s.sketches {
			if sk.n > 0 {
				ranked = append(ranked, p)
			}
		}
		slices.Sort(ranked)
		s.ranked, s.rerank = ranked, false
	}
	return s.ranked
}

// SetObserver registers the store's ingest metrics on reg. All three are
// deterministic-class: record streams arrive in dataset emission order,
// identical across sequential and sharded runs.
func (s *Store) SetObserver(reg *obs.Registry) {
	s.obsRecords = reg.Counter("advisor.ingest.records")
	s.obsSamples = reg.Counter("advisor.ingest.samples")
	s.obsPrefixes = reg.Gauge("advisor.prefixes_hwm")
}

// Records returns how many records have been consumed.
func (s *Store) Records() uint64 { return s.records }

// Samples returns how many latency samples reached the sketches (matched
// plus recovered-delayed).
func (s *Store) Samples() uint64 { return s.matched + s.delayed }

// Prefixes returns how many /24 prefixes hold a sketch.
func (s *Store) Prefixes() int { return len(s.sketches) }

// sketch returns (creating if needed) the prefix's sketch.
func (s *Store) sketch(p ipaddr.Prefix24) *Sketch {
	sk := s.sketches[p]
	if sk == nil {
		sk = NewSketch()
		s.sketches[p] = sk
		s.obsPrefixes.Observe(int64(len(s.sketches)))
	}
	return sk
}

// Write implements survey.RecordWriter, so a survey (sequential or sharded)
// can probe straight into the advisor with no intermediate dataset.
func (s *Store) Write(rec survey.Record) error {
	s.Observe(rec)
	return nil
}

// Observe folds one survey record into the store. Matched records
// contribute their RTT directly; timeout records open probes; unmatched
// responses go through core's attribution kernel, which credits the newest
// open probe sent strictly before their arrival and yields the delayed
// samples that populate the advice tail. The advisor keeps no duplicate or
// broadcast verdicts, so it credits every response as a single packet.
func (s *Store) Observe(rec survey.Record) {
	s.records++
	s.obsRecords.Inc()
	switch rec.Type {
	case survey.RecMatched:
		ring, _ := s.open.Get(rec.Addr)
		ring.Push(rec.When, true)
		s.sample(rec.Addr, rec.RTT)
		s.matched++
	case survey.RecTimeout:
		ring, _ := s.open.Get(rec.Addr)
		ring.Push(rec.When, false)
	case survey.RecUnmatched:
		ring := s.open.Lookup(rec.Addr)
		if ring == nil {
			return
		}
		if lat, fresh := ring.Attribute(rec.When, 1); fresh {
			s.sample(rec.Addr, lat)
			s.delayed++
		}
	case survey.RecError:
		// ICMP errors carry no latency; the analysis pipeline discards such
		// probes and so does the advisor.
	}
}

// sample folds one latency sample for addr into its prefix sketch.
func (s *Store) sample(addr ipaddr.Addr, lat time.Duration) {
	p := addr.Prefix()
	sk := s.sketch(p)
	if sk.n == 0 {
		s.rerank = true // the prefix joins the rank order
	}
	sk.Add(lat)
	s.updated[p] = s.stamp()
	s.obsSamples.Inc()
}

// Consume drains a RecordSource into the store, stopping at io.EOF or the
// first error.
func (s *Store) Consume(src survey.RecordSource) error {
	for {
		rec, err := src.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		s.Observe(rec)
	}
}

// Merge folds other's state into s: sketches add bucket-wise (commutative
// and associative, the obs.Registry.Merge discipline), freshness stamps take
// the per-prefix maximum, counters add, and open attribution state unions.
// Shards partition the address space, so open-state keys never collide in
// sharded use; on a collision the entry with more recent probes wins,
// keeping the merge deterministic for any fixed merge order.
//
// Counter/metric agreement: the folded record and sample counts are also
// mirrored into s's obs counters, so a store observed on a registry keeps
// advisor.ingest.records == Records() and advisor.ingest.samples ==
// Samples() across any sequence of Observe/Merge — the invariant
// TestStoreMergeCounterAgreement pins. The stores being merged *in* must
// therefore be unobserved, or observed on registries that are never merged
// with s's — otherwise their ingest totals would count twice. That is the
// sharded discipline anyway: shard stores are plain, the accumulator owns
// the metrics.
func (s *Store) Merge(other *Store) {
	for p, sk := range other.sketches {
		mine := s.sketches[p]
		if mine == nil {
			s.sketch(p).Merge(sk)
			continue
		}
		mine.Merge(sk)
	}
	for p, t := range other.updated {
		if t > s.updated[p] {
			s.updated[p] = t
		}
	}
	other.open.Range(func(a ipaddr.Addr, ring *core.OpenProbes) {
		if cur, created := s.open.Get(a); created || newest(ring) > newest(cur) {
			*cur = *ring
		}
	})
	s.rerank = true
	s.records += other.records
	s.matched += other.matched
	s.delayed += other.delayed
	s.obsRecords.Add(other.records)
	s.obsSamples.Add(other.matched + other.delayed)
	s.obsPrefixes.Observe(int64(len(s.sketches)))
}

// newest returns the ring's newest open probe send time (or a sentinel
// past).
func newest(ring *core.OpenProbes) time.Duration {
	if ring.Len() == 0 {
		return -1
	}
	return ring.Send(ring.Len() - 1)
}
