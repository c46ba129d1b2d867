package advisor

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"timeouts/internal/faults"
	"timeouts/internal/ipaddr"
	"timeouts/internal/survey"
)

// chaosPhases replays a deterministic ingest-publish-checkpoint sequence
// against st/adv/ck: nPhases rounds of record batches, each followed by a
// publish (recording the published snapshot's bytes into published) and a
// Save. It stops at the first simulated crash and returns the save error
// that stopped it (nil when the whole sequence completed).
func chaosPhases(t *testing.T, nPhases int, ck *Checkpointer, published map[uint64][]byte) error {
	t.Helper()
	now := int64(1_000_000_000)
	st := NewStore()
	st.SetClock(func() int64 { return now })
	adv := New()
	for phase := 0; phase < nPhases; phase++ {
		for i := 0; i < 40; i++ {
			now += int64(time.Second)
			addr := ipaddr.Addr(0x0a000001 + uint32((phase*40+i)%96)<<8)
			st.Observe(survey.Record{
				Type: survey.RecMatched,
				Addr: addr,
				When: time.Duration(now),
				RTT:  time.Duration(1+(phase*53+i*7)%2000) * time.Millisecond,
			})
		}
		// A sprinkle of open-probe state so checkpoints carry it too.
		st.Observe(survey.Record{Type: survey.RecTimeout, Addr: ipaddr.Addr(0x0a00ff01 + uint32(phase)), When: time.Duration(now)})
		snap := adv.Publish(st)
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		published[snap.Epoch()] = buf.Bytes()
		if _, err := ck.Save(st, snap.Epoch()); err != nil {
			return err
		}
	}
	return nil
}

// verifyRecovery asserts the chaos invariant on a checkpoint directory: the
// recovered state is some previously *published* epoch — never corrupt,
// never fabricated — or a clean fresh start when no save ever completed.
func verifyRecovery(t *testing.T, dir string, published map[uint64][]byte, ctx string) {
	t.Helper()
	st, epoch, rs, err := (&Checkpointer{Dir: dir}).Load()
	if err != nil {
		t.Fatalf("%s: Load: %v", ctx, err)
	}
	if st == nil {
		if epoch != 0 {
			t.Fatalf("%s: nil store with epoch %d", ctx, epoch)
		}
		return // fresh start: legal only when nothing durable landed
	}
	want, ok := published[epoch]
	if !ok {
		t.Fatalf("%s: recovered epoch %d was never published (recovery stats %+v)", ctx, epoch, rs)
	}
	var got bytes.Buffer
	if err := New().Restore(st, epoch).WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: recovered epoch %d differs from what was published", ctx, epoch)
	}
}

// TestChaosCheckpointKillRestore is the exhaustive kill sweep: a dry run
// counts every durable operation the checkpoint sequence performs — temp
// create, each chunk write (torn mid-chunk), sync, rename, GC — then one
// subrun per operation kills the process exactly there and recovers. The
// invariant at every kill point: recovery yields some previously published
// epoch, byte-identical, never a torn or fabricated state. Completed saves
// past the first generation must also keep recovery non-empty.
func TestChaosCheckpointKillRestore(t *testing.T) {
	const nPhases = 5

	// Dry run: count ops (Kill consulted but never firing).
	var total uint64
	{
		dir := t.TempDir()
		ck := &Checkpointer{Dir: dir, Keep: 2, Kill: func(op uint64) bool {
			if op >= total {
				total = op + 1
			}
			return false
		}}
		if err := chaosPhases(t, nPhases, ck, map[uint64][]byte{}); err != nil {
			t.Fatalf("dry run crashed: %v", err)
		}
	}
	if total < uint64(nPhases)*4 {
		t.Fatalf("dry run counted only %d durable ops", total)
	}

	for k := uint64(0); k < total; k++ {
		k := k
		t.Run(fmt.Sprintf("kill-op-%03d", k), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			published := map[uint64][]byte{}
			ck := &Checkpointer{Dir: dir, Keep: 2, Kill: func(op uint64) bool { return op == k }}
			err := chaosPhases(t, nPhases, ck, published)
			if err != nil && !errors.Is(err, ErrCrashed) {
				t.Fatalf("unexpected save error: %v", err)
			}
			verifyRecovery(t, dir, published, fmt.Sprintf("kill at op %d", k))

			// A crash during the second or later save happens after save #1
			// completed, so recovery must find *something*.
			if err != nil && ck.ops > total/uint64(nPhases)+1 {
				st, _, _, _ := (&Checkpointer{Dir: dir}).Load()
				if st == nil {
					t.Fatal("crash after a completed save, but recovery found nothing")
				}
			}
		})
	}
}

// TestChaosCheckpointSeededKills drives the same invariant with the shared
// fault plan's CrashConfig across many seeds — random multi-kill restart
// chains instead of the exhaustive single-kill sweep — while concurrent
// readers hammer Advisor.Lookup during every publish (the -race half of the
// suite). Each simulated process restart resumes from the recovered store,
// exactly as advisord does.
func TestChaosCheckpointSeededKills(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			plan := &faults.Plan{Seed: seed, Crash: faults.CrashConfig{OpRate: 0.04}}
			if !plan.CrashActive() {
				t.Fatal("crash config inactive")
			}
			published := map[uint64][]byte{}

			adv := New()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						addr := ipaddr.Addr(0x0a000001 + uint32((i+r)%96)<<8)
						adv.Lookup(addr, 95, 95) // pre-first-publish ErrNoData is fine

					}
				}(r)
			}

			// A restart chain: each attempt recovers from disk, replays the
			// phase sequence from the recovered epoch, and dies wherever the
			// plan says. The op sequence number keeps advancing across
			// restarts so each attempt draws fresh kill decisions.
			var opBase uint64
			for attempt := 0; attempt < 8; attempt++ {
				st, epoch, _, err := (&Checkpointer{Dir: dir}).Load()
				if err != nil {
					t.Fatal(err)
				}
				if st == nil {
					st = NewStore()
				} else {
					if _, ok := published[epoch]; !ok {
						t.Fatalf("attempt %d recovered unpublished epoch %d", attempt, epoch)
					}
					adv.Restore(st, epoch)
				}
				now := int64(1_000_000_000) + int64(epoch)*1e9
				st.SetClock(func() int64 { return now })
				base := opBase
				ck := &Checkpointer{Dir: dir, Keep: 2, Kill: func(op uint64) bool {
					return plan.CrashAt(base + op)
				}}
				crashed := false
				for phase := 0; phase < 3 && !crashed; phase++ {
					for i := 0; i < 30; i++ {
						now += int64(time.Second)
						st.Observe(survey.Record{
							Type: survey.RecMatched,
							Addr: ipaddr.Addr(0x0a000001 + uint32((attempt*31+phase*7+i)%96)<<8),
							When: time.Duration(now),
							RTT:  time.Duration(1+(attempt*97+i*13)%2000) * time.Millisecond,
						})
					}
					snap := adv.Publish(st)
					var buf bytes.Buffer
					if err := snap.WriteJSON(&buf); err != nil {
						t.Fatal(err)
					}
					published[snap.Epoch()] = buf.Bytes()
					if _, err := ck.Save(st, snap.Epoch()); err != nil {
						if !errors.Is(err, ErrCrashed) {
							t.Fatalf("save: %v", err)
						}
						crashed = true
					}
				}
				opBase += ck.ops
				verifyRecovery(t, dir, published, fmt.Sprintf("seed %d attempt %d", seed, attempt))
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestChaosConsumeCorruptStream feeds Store.Consume a CSV dataset corrupted
// by the shared fault layer and proves count-and-continue: the lenient
// source drops damaged rows (counted per cause), every surviving record is
// one of the originals (no silently mutated samples, for this seed), and
// the resulting advice is byte-identical to ingesting just the survivors
// cleanly — corruption thins the data, it never invents any.
func TestChaosConsumeCorruptStream(t *testing.T) {
	// Unique (Addr, When, RTT) per record so survivors can be matched
	// against originals exactly.
	originals := make([]survey.Record, 600)
	orig := make(map[survey.Record]bool, len(originals))
	for i := range originals {
		originals[i] = survey.Record{
			Type: survey.RecMatched,
			Addr: ipaddr.Addr(0x0a000001 + uint32(i%64)<<8 + uint32(i/64)),
			When: time.Duration(i+1) * time.Second,
			RTT:  time.Duration(1+i%1900) * time.Millisecond,
		}
		orig[originals[i]] = true
	}
	var csv bytes.Buffer
	w := survey.NewCSVWriter(&csv)
	for _, r := range originals {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Hunt a seed whose flips only destroy rows (skipped by the lenient
	// reader) without mutating any into a different-but-parsable record.
	// Most seeds qualify — CSV bit flips usually break parsing — but the
	// subset check below is what makes the clean-vs-corrupt comparison
	// sound rather than lucky.
	for seed := uint64(1); seed <= 64; seed++ {
		plan := &faults.Plan{Seed: seed, Data: faults.DataConfig{FlipRate: 0.001}}
		src, _, err := survey.OpenSourceLenient(plan.CorruptReader(bytes.NewReader(csv.Bytes())))
		if err != nil {
			continue // header corrupted: fail-fast by design, try another seed
		}
		survivors, err := survey.DrainSource(src)
		if err != nil {
			t.Fatalf("seed %d: lenient source errored: %v", seed, err)
		}
		stats := src.Stats()
		if stats.Skipped() == 0 || len(survivors) == len(originals) {
			continue // no damage done; nothing to prove with this seed
		}
		subset := true
		for _, r := range survivors {
			if !orig[r] {
				subset = false
				break
			}
		}
		if !subset {
			continue // a flip mutated a row into a parsable impostor
		}

		// Corrupt-path ingest: Consume over a fresh corrupted source
		// (deterministic faults: same seed, same offsets, same bytes).
		src2, _, err := survey.OpenSourceLenient(plan.CorruptReader(bytes.NewReader(csv.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		stCorrupt := NewStore()
		if err := stCorrupt.Consume(src2); err != nil {
			t.Fatalf("seed %d: Consume returned %v, want nil (count and continue)", seed, err)
		}
		if stCorrupt.Records() != uint64(len(survivors)) {
			t.Fatalf("seed %d: consumed %d records, want %d survivors", seed, stCorrupt.Records(), len(survivors))
		}

		// Clean ingest of exactly the survivors: advice must match.
		stClean := NewStore()
		if err := stClean.Consume(&sliceSource{recs: survivors}); err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := stCorrupt.Snapshot(1).WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := stClean.Snapshot(1).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("seed %d: corrupt-stream advice differs from clean ingest of survivors", seed)
		}
		t.Logf("seed %d: %d/%d rows survived (%s)", seed, len(survivors), len(originals), stats)
		return
	}
	t.Fatal("no seed in 1..64 produced clean row drops; loosen the hunt")
}
