package advisor

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// ladderSample draws one latency from bucket i of the ladder: exactly on
// the bucket's bound (a tie with every other sample there) or strictly
// inside it, and past maxAdvice for the overflow bucket.
func ladderSample(rng *rand.Rand, i int) time.Duration {
	if i == numBuckets-1 {
		return maxAdvice + 1 + time.Duration(rng.Int63n(int64(time.Hour)))
	}
	if rng.Intn(2) == 0 {
		return bucketBounds[i]
	}
	lo := time.Duration(0)
	if i > 0 {
		lo = bucketBounds[i-1]
	}
	return lo + 1 + time.Duration(rng.Int63n(int64(bucketBounds[i]-lo)))
}

// checkSnapshotOracle holds snap, built from st, to the per-level oracles:
// its prefixes are st's sampled prefixes in ascending order, every row
// equals Sketch.Quantile at each standard level, and the matrix equals
// stats.BuildTimeoutMatrix of those rows.
func checkSnapshotOracle(t *testing.T, name string, st *Store, snap *Snapshot) {
	t.Helper()
	var want []ipaddr.Prefix24
	for p, sk := range st.sketches {
		if sk.n > 0 {
			want = append(want, p)
		}
	}
	slices.Sort(want)
	if !slices.Equal(snap.prefixes, want) {
		t.Fatalf("%s: snapshot ranks %d prefixes, store has %d sampled", name, len(snap.prefixes), len(want))
	}
	vecs := make([]stats.Quantiles, len(want))
	for r, p := range want {
		sk := st.sketches[p]
		var q [nLevels]time.Duration
		for c, lvl := range stats.StandardPercentiles {
			q[c], _ = sk.Quantile(lvl)
			if got := snap.quants[r*nLevels+c]; got != q[c] {
				t.Fatalf("%s: prefix %v (n=%d) p%v = %v, Quantile %v", name, p, sk.n, lvl, got, q[c])
			}
		}
		vecs[r] = stats.Quantiles{P1: q[0], P50: q[1], P80: q[2], P90: q[3], P95: q[4], P98: q[5], P99: q[6]}
	}
	if m := stats.BuildTimeoutMatrix(vecs); !reflect.DeepEqual(snap.matrix, m) {
		t.Fatalf("%s: counted matrix over %d prefixes\n%s\nBuildTimeoutMatrix\n%s",
			name, len(want), snap.matrix.FormatSeconds(), m.FormatSeconds())
	}
}

// TestPopulationMatrixMatchesBuildTimeoutMatrix holds the publish path to
// its oracles over random stores of 1–300 prefixes: samples anywhere on
// the ladder (overflow included), confined in some stores to a narrow band
// of buckets so that prefix rows tie, one-sample prefixes, and publishes
// interleaved with growth, so the rank order is rebuilt and then shared.
func TestPopulationMatrixMatchesBuildTimeoutMatrix(t *testing.T) {
	if nLevels != len(stats.StandardPercentiles) {
		t.Fatalf("nLevels = %d, stats.StandardPercentiles has %d levels", nLevels, len(stats.StandardPercentiles))
	}
	trials := 1000
	if testing.Short() {
		trials = 300
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < trials; trial++ {
		st := NewStore()
		st.SetClock(func() int64 { return 1 })
		prefixes := 1 + rng.Intn(300)
		lo := rng.Intn(numBuckets)
		band := 1 + rng.Intn(numBuckets-lo)
		phases := 1 + rng.Intn(4)
		for ph := 0; ph < phases; ph++ {
			// Each phase reaches a further share of the prefixes, so the
			// last one holds all of them, and samples some it reached before.
			reach := prefixes * (ph + 1) / phases
			for k := 0; k < reach; k++ {
				if ph > 0 && rng.Intn(2) == 0 {
					continue
				}
				addr := ipaddr.Addr(0x0a000001 + uint32(k)<<8)
				n := 1
				if rng.Intn(3) > 0 {
					n += rng.Intn(1 << uint(rng.Intn(7)))
				}
				for j := 0; j < n; j++ {
					st.Add(addr, ladderSample(rng, lo+rng.Intn(band)))
				}
			}
			for rep := 0; rep < 2; rep++ { // the second build shares the rank order
				name := fmt.Sprintf("trial %d phase %d build %d", trial, ph, rep)
				checkSnapshotOracle(t, name, st, st.Snapshot(uint64(ph+1)))
			}
		}
	}
}

// encodeSnapshot encodes snap as /snapshot serves it.
func encodeSnapshot(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRankOrderInvalidation pins every way the store's prefix set
// grows after a publish has shared its rank order: a record reaching a new
// prefix, and a checkpoint decoded into a fresh store. Each publish
// afterwards must encode exactly as a store built from scratch with the
// same samples.
func TestSnapshotRankOrderInvalidation(t *testing.T) {
	recs := func(from, to int) []survey.Record {
		var out []survey.Record
		for i := from; i < to; i++ {
			out = append(out, survey.Record{
				Type: survey.RecMatched,
				Addr: ipaddr.Addr(0x0a000001 + uint32(i%40)<<8),
				When: time.Duration(i+1) * time.Second,
				RTT:  time.Duration(1+i*37%900) * time.Millisecond,
			})
		}
		return out
	}
	feed := func(st *Store, recs []survey.Record) {
		for _, r := range recs {
			st.Observe(r)
		}
	}
	fresh := func(epoch uint64, recs []survey.Record) []byte {
		st := NewStore()
		feed(st, recs)
		st.rerank = true // rank the sketch map itself, whatever the store tracked
		return encodeSnapshot(t, st.Snapshot(epoch))
	}

	t.Run("prefix-added", func(t *testing.T) {
		st := NewStore()
		feed(st, recs(0, 20)) // prefixes 0–19
		st.Snapshot(1)
		feed(st, recs(20, 60)) // prefixes 20–39, and 0–19 again
		if got, want := encodeSnapshot(t, st.Snapshot(2)), fresh(2, recs(0, 60)); !bytes.Equal(got, want) {
			t.Errorf("publish after new prefixes:\n%s\nwant\n%s", got, want)
		}
	})

	t.Run("checkpoint-restore", func(t *testing.T) {
		st := NewStore()
		feed(st, recs(0, 30))
		st.Snapshot(1)
		ck := &Checkpointer{Dir: t.TempDir()}
		if _, err := ck.Save(st, 7); err != nil {
			t.Fatal(err)
		}
		st2, epoch, _, err := ck.Load()
		if err != nil {
			t.Fatal(err)
		}
		adv := New()
		if got, want := encodeSnapshot(t, adv.Restore(st2, epoch)), fresh(7, recs(0, 30)); !bytes.Equal(got, want) {
			t.Errorf("restored publish:\n%s\nwant\n%s", got, want)
		}
		feed(st2, recs(30, 70)) // prefixes 30–39 join after the restore
		if got, want := encodeSnapshot(t, adv.Publish(st2)), fresh(8, recs(0, 70)); !bytes.Equal(got, want) {
			t.Errorf("publish after restore and new prefixes:\n%s\nwant\n%s", got, want)
		}
	})
}

// TestSnapshotAliasingAcrossPublishes pins that a published snapshot never
// changes under its readers while the store keeps ingesting: readers encode
// and query a held snapshot while the writer adds a prefix before each of
// 200 publishes, which re-ranks the slice the held snapshot shares. Under
// the race detector (make advisor-check runs it ten times raced), any write
// into the shared rank order is a reported race as well as changed bytes.
func TestSnapshotAliasingAcrossPublishes(t *testing.T) {
	st := NewStore()
	for i := 0; i < 64; i++ {
		st.Add(ipaddr.Addr(0x0a000001+uint32(i)<<8), time.Duration(1+i)*time.Millisecond)
	}
	adv := New()
	held := adv.Publish(st)
	want := encodeSnapshot(t, held)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				if err := held.WriteJSON(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("held snapshot re-encoded differently (err %v)", err)
					return
				}
				if a, err := held.Lookup(ipaddr.Addr(0x0a003f01), 95, 95); err != nil || a.Source != SourcePrefix || a.Samples != 1 {
					t.Errorf("held snapshot lookup = %+v, %v", a, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		// Prefixes below the held ones sort first, so every re-rank moves
		// every held prefix to a new position.
		st.Add(ipaddr.Addr(0x09ffff01-uint32(i)<<8), time.Second)
		st.Add(ipaddr.Addr(0x0a000001+uint32(i%64)<<8), 2*time.Second)
		adv.Publish(st)
	}
	close(stop)
	wg.Wait()
	if got := encodeSnapshot(t, held); !bytes.Equal(got, want) {
		t.Error("held snapshot changed after later publishes")
	}
	if got := adv.Current().Prefixes(); got != 264 {
		t.Errorf("current snapshot has %d prefixes, want 264", got)
	}
}

// TestPublishAllocs pins a steady-state Publish of BenchmarkAdvisorPublish's
// store: the Snapshot, its samples, freshness and quantile arrays, and the
// matrix's row headers and cells. The rank order is shared and the
// per-level histograms live on the stack.
func TestPublishAllocs(t *testing.T) {
	st := publishBenchStore()
	adv := New()
	adv.Publish(st) // ranks the prefixes once
	if n := testing.AllocsPerRun(100, func() { adv.Publish(st) }); n > 6 {
		t.Errorf("Publish allocates %.0f times, want at most 6", n)
	}
}
