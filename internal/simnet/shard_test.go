package simnet

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

func TestShardKeyLess(t *testing.T) {
	// Keys in strictly ascending order; every earlier key must order before
	// every later one and never the reverse.
	keys := []ShardKey{
		{At: 0},
		{At: 0, Phase: 1},
		{At: 0, Phase: 1, A: 1},
		{At: 0, Phase: 1, A: 1, B: 1},
		{At: 0, Phase: 1, A: 1, B: 1, C: 1},
		{At: 1},
		{At: 1, C: 7},
		{At: 2, Phase: 3, A: 9, B: 9, C: 9},
	}
	for i := range keys {
		if keys[i].Less(keys[i]) {
			t.Errorf("key %d Less than itself", i)
		}
		for j := i + 1; j < len(keys); j++ {
			if !keys[i].Less(keys[j]) {
				t.Errorf("keys[%d] !< keys[%d]", i, j)
			}
			if keys[j].Less(keys[i]) {
				t.Errorf("keys[%d] < keys[%d]", j, i)
			}
		}
	}
}

func TestShardBounds(t *testing.T) {
	for _, n := range []int{0, 1, 5, 7, 64, 1000} {
		for shards := 1; shards <= 9; shards++ {
			covered := 0
			prevHi := 0
			minSz, maxSz := n+1, -1
			for k := 0; k < shards; k++ {
				lo, hi := ShardBounds(n, shards, k)
				if lo != prevHi {
					t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", n, shards, k, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d shards=%d: shard %d inverted [%d,%d)", n, shards, k, lo, hi)
				}
				sz := hi - lo
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
				covered += sz
				prevHi = hi
			}
			if prevHi != n || covered != n {
				t.Fatalf("n=%d shards=%d: covered %d ending at %d", n, shards, covered, prevHi)
			}
			if maxSz-minSz > 1 {
				t.Errorf("n=%d shards=%d: unbalanced sizes [%d,%d]", n, shards, minSz, maxSz)
			}
		}
	}
}

// mergeAll collects MergeTaggedFunc's output in order.
func mergeAll[R any](streams [][]Tagged[R]) []R {
	var out []R
	MergeTaggedFunc(streams, func(r R) { out = append(out, r) })
	return out
}

func TestMergeTagged(t *testing.T) {
	// Two streams with interleaved and exactly-equal keys: equal keys must
	// resolve to the lower stream.
	a := []Tagged[string]{
		{Key: ShardKey{At: 1}, Rec: "a1"},
		{Key: ShardKey{At: 3}, Rec: "a3"},
		{Key: ShardKey{At: 5}, Rec: "a5-first"},
	}
	b := []Tagged[string]{
		{Key: ShardKey{At: 2}, Rec: "b2"},
		{Key: ShardKey{At: 5}, Rec: "b5-second"},
		{Key: ShardKey{At: 9}, Rec: "b9"},
	}
	got := mergeAll([][]Tagged[string]{a, b})
	want := []string{"a1", "b2", "a3", "a5-first", "b5-second", "b9"}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestMergeTaggedEmpty(t *testing.T) {
	if got := mergeAll[int](nil); len(got) != 0 {
		t.Errorf("merge of no streams produced %d records", len(got))
	}
	if got := mergeAll([][]Tagged[int]{{}, {}, {}}); len(got) != 0 {
		t.Errorf("merge of empty streams produced %d records", len(got))
	}
}

func TestRunShardsRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 50} {
		const shards = 17
		var ran [shards]atomic.Bool
		err := RunShards(shards, workers, func(k int) error {
			if ran[k].Swap(true) {
				return fmt.Errorf("shard %d ran twice", k)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for k := range ran {
			if !ran[k].Load() {
				t.Errorf("workers=%d: shard %d never ran", workers, k)
			}
		}
	}
}

func TestRunShardsReturnsLowestError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for i := 0; i < 20; i++ { // repeat: the winning error must not depend on timing
		err := RunShards(8, 4, func(k int) error {
			switch k {
			case 2:
				return errLow
			case 6:
				return errHigh
			default:
				return nil
			}
		})
		if err != errLow {
			t.Fatalf("got %v, want error of lowest failing shard", err)
		}
	}
}

// A panicking worker must degrade to an error naming the shard, not crash
// the process; the remaining shards still run. Part of the chaos suite
// (make chaos runs it under -race).
func TestChaosRunShardsRecoversPanic(t *testing.T) {
	const shards = 9
	var ran [shards]atomic.Bool
	err := RunShards(shards, 3, func(k int) error {
		ran[k].Store(true)
		if k == 4 {
			panic("injected worker failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("RunShards swallowed a worker panic")
	}
	if !strings.Contains(err.Error(), "shard 4") || !strings.Contains(err.Error(), "injected worker failure") {
		t.Fatalf("error does not identify the panicking shard: %v", err)
	}
	for k := range ran {
		if !ran[k].Load() {
			t.Errorf("shard %d never ran after the panic", k)
		}
	}
}

// With several shards panicking, the reported error is the lowest-numbered
// one under any interleaving.
func TestChaosRunShardsPanicLowestWins(t *testing.T) {
	for i := 0; i < 20; i++ {
		err := RunShards(8, 4, func(k int) error {
			if k == 3 || k == 6 {
				panic(fmt.Sprintf("boom %d", k))
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "shard 3") {
			t.Fatalf("got %v, want panic error of lowest failing shard", err)
		}
	}
}

func TestRunShardsZero(t *testing.T) {
	called := false
	if err := RunShards(0, 4, func(int) error { called = true; return nil }); err != nil || called {
		t.Errorf("RunShards(0) = %v, called=%v", err, called)
	}
}

// FuzzShardMerge checks the engine's ordering contract: merging the
// per-chunk streams of any contiguous partition of a record stream — each
// chunk stably sorted by key, as a shard run emits it — must equal a stable
// sort of the whole stream. Byte-identical parallel output reduces to this
// property.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{0, 0, 0, 0}, uint8(2))
	f.Add([]byte{255, 1, 255, 1, 9}, uint8(1))
	f.Add([]byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, shardsRaw uint8) {
		shards := int(shardsRaw%8) + 1
		// Decode each byte into a key from a tiny value space so that
		// exact key collisions are common — the hard case for stability.
		type rec struct {
			key ShardKey
			id  int // original position: the stability witness
		}
		recs := make([]rec, len(data))
		for i, b := range data {
			recs[i] = rec{
				key: ShardKey{
					At:    Time(b >> 6),
					Phase: (b >> 4) & 3,
					A:     uint64((b >> 2) & 3),
					B:     uint64(b & 3),
				},
				id: i,
			}
		}

		// Reference: stable sort of the whole stream.
		want := append([]rec(nil), recs...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].key.Less(want[j].key) })

		// Sharded: contiguous partition, stable sort per chunk, merge.
		streams := make([][]Tagged[rec], shards)
		for k := 0; k < shards; k++ {
			lo, hi := ShardBounds(len(recs), shards, k)
			chunk := append([]rec(nil), recs[lo:hi]...)
			sort.SliceStable(chunk, func(i, j int) bool { return chunk[i].key.Less(chunk[j].key) })
			for _, r := range chunk {
				streams[k] = append(streams[k], Tagged[rec]{Key: r.key, Rec: r})
			}
		}
		got := mergeAll(streams)

		if len(got) != len(want) {
			t.Fatalf("merged %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: merged %+v, stable sort %+v (shards=%d, input=%v)",
					i, got[i], want[i], shards, data)
			}
		}
	})
}
