package simnet

import (
	"container/heap"
	"fmt"
	"runtime"
)

// Sharded execution support. A population scan can be partitioned into K
// contiguous shards, each driven by its own Scheduler and Network on its own
// goroutine; because every per-address draw in the fabric is a pure function
// of (seed, address, time) and per-address mutable state never crosses shard
// boundaries, each shard reproduces exactly the slice of the sequential run
// it owns. What the shards cannot reproduce locally is the *interleaving* of
// the sequential event loop — so records carry a ShardKey, a (timestamp,
// sequence) tuple that totally orders the sequential run's record stream,
// and MergeTaggedFunc recovers the sequential order exactly. Determinism —
// the repo's core invariant — is therefore preserved: the merged output is
// byte-identical to the single-threaded run regardless of shard count or
// worker scheduling.

// ShardKey totally orders records emitted by a sharded run, reconstructing
// the order the sequential event loop would have produced. Keys compare
// lexicographically by (At, Phase, A, B, C):
//
//   - At is the simulation time of the event that emitted the record.
//   - Phase ranks event classes scheduled in separate batches: the
//     sequential scheduler breaks same-time ties by insertion order, and
//     probers insert all events of one class before the next (probe slots,
//     then sweeps, then deliveries as they are created).
//   - A, B, C order records within a phase at one instant: typically the
//     global rank of the originating probe, the delivery index within the
//     probe, and the record index within the delivery.
type ShardKey struct {
	At    Time
	Phase uint8
	A     uint64
	B     uint64
	C     uint64
}

// Less reports whether k orders before o.
func (k ShardKey) Less(o ShardKey) bool {
	switch {
	case k.At != o.At:
		return k.At < o.At
	case k.Phase != o.Phase:
		return k.Phase < o.Phase
	case k.A != o.A:
		return k.A < o.A
	case k.B != o.B:
		return k.B < o.B
	default:
		return k.C < o.C
	}
}

// Tagged pairs a record with its merge key.
type Tagged[R any] struct {
	Key ShardKey
	Rec R
}

// mergeItem is one stream head in the k-way merge.
type mergeItem[R any] struct {
	key    ShardKey
	stream int
}

// mergeHeap orders stream heads by (key, stream index): ties between shards
// resolve to the lower shard, which holds the earlier slice of the
// partition, matching the sequential order for fully equal keys.
type mergeHeap[R any] []mergeItem[R]

func (h mergeHeap[R]) Len() int { return len(h) }
func (h mergeHeap[R]) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key.Less(h[j].key)
	}
	return h[i].stream < h[j].stream
}
func (h mergeHeap[R]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap[R]) Push(x any)   { *h = append(*h, x.(mergeItem[R])) }
func (h *mergeHeap[R]) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// MergeTaggedFunc k-way merges per-shard record streams, each already
// sorted by key (the natural emission order of a shard run), yielding each
// record to fn in global key order. Equal keys across streams resolve to
// the lower-indexed stream, so the merge of any order-preserving contiguous
// partition of a stream equals a stable sort of the whole. Consumers that
// stream the merge — a dataset writer, or the matcher fed straight from a
// sharded run — never materialize the merged stream, leaving the per-shard
// buffers as the only O(records) state of a sharded run.
func MergeTaggedFunc[R any](streams [][]Tagged[R], fn func(R)) {
	pos := make([]int, len(streams))
	h := make(mergeHeap[R], 0, len(streams))
	for i, s := range streams {
		if len(s) > 0 {
			h = append(h, mergeItem[R]{key: s[0].Key, stream: i})
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		it := h[0]
		s := streams[it.stream]
		fn(s[pos[it.stream]].Rec)
		pos[it.stream]++
		if p := pos[it.stream]; p < len(s) {
			h[0] = mergeItem[R]{key: s[p].Key, stream: it.stream}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
}

// ShardBounds returns the half-open range [lo, hi) of the k-th of `shards`
// contiguous, balanced partitions of [0, n). Sizes differ by at most one.
func ShardBounds(n, shards, k int) (lo, hi int) {
	return k * n / shards, (k + 1) * n / shards
}

// RunShards executes fn(0) .. fn(shards-1) on a bounded worker pool of
// `workers` goroutines (workers <= 0 selects runtime.GOMAXPROCS) and blocks
// until all complete. Shard outputs must be written to per-shard slots; the
// pool imposes no ordering between shards. The returned error is the error
// of the lowest-numbered failing shard, so error reporting is deterministic
// under any interleaving. A panic in fn does not kill the run: it is
// recovered and reported as that shard's error, so one failing worker
// degrades a parallel run to an error instead of a crash.
func RunShards(shards, workers int, fn func(shard int) error) error {
	if shards <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	errs := make([]error, shards)
	next := make(chan int)
	done := make(chan struct{})
	runShard := func(k int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("simnet: shard %d panicked: %v", k, r)
			}
		}()
		return fn(k)
	}
	for w := 0; w < workers; w++ {
		go func() {
			for k := range next {
				errs[k] = runShard(k)
			}
			done <- struct{}{}
		}()
	}
	for k := 0; k < shards; k++ {
		next <- k
	}
	close(next)
	for w := 0; w < workers; w++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
