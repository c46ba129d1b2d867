package advisor

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/faults"
	"timeouts/internal/ipaddr"
	"timeouts/internal/survey"
)

// ckptTestStore builds a store with a deterministic clock, mixed sketch
// shapes, live open-probe state, and all three counters nonzero — every
// field the checkpoint format carries.
func ckptTestStore(now *int64) *Store {
	st := NewStore()
	st.SetClock(func() int64 { return *now })
	for i := 0; i < 32; i++ {
		addr := ipaddr.Addr(0x0a000001 + uint32(i)<<8)
		for j := 0; j <= i%5; j++ {
			*now += int64(time.Second)
			st.Add(addr, time.Duration(1+(i*7+j)%900)*time.Millisecond)
		}
	}
	// Open attribution state: a lone timeout (unresolved), a resolved
	// delayed pair, and a full two-probe ring.
	st.Observe(survey.Record{Type: survey.RecTimeout, Addr: 0x0a000001, When: 100 * time.Second})
	st.Observe(survey.Record{Type: survey.RecTimeout, Addr: 0x0a000101, When: 101 * time.Second})
	st.Observe(survey.Record{Type: survey.RecUnmatched, Addr: 0x0a000101, When: 108 * time.Second})
	st.Observe(survey.Record{Type: survey.RecTimeout, Addr: 0x0a000201, When: 102 * time.Second})
	st.Observe(survey.Record{Type: survey.RecTimeout, Addr: 0x0a000201, When: 103 * time.Second})
	return st
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	now := int64(1_000_000_000)
	st := ckptTestStore(&now)
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, st, 42); err != nil {
		t.Fatal(err)
	}
	st2, epoch, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 42 {
		t.Errorf("epoch = %d, want 42", epoch)
	}
	if st2.records != st.records || st2.matched != st.matched || st2.delayed != st.delayed {
		t.Errorf("counters = %d/%d/%d, want %d/%d/%d",
			st2.records, st2.matched, st2.delayed, st.records, st.matched, st.delayed)
	}
	if len(st2.sketches) != len(st.sketches) || st2.open.Len() != st.open.Len() {
		t.Errorf("state = %d sketches/%d open, want %d/%d",
			len(st2.sketches), st2.open.Len(), len(st.sketches), st.open.Len())
	}
	for p, sk := range st.sketches {
		sk2 := st2.sketches[p]
		if sk2 == nil || sk2.n != sk.n {
			t.Fatalf("prefix %v sketch differs after round trip", p)
		}
		for i, c := range sk.counts {
			if sk2.counts[i] != c {
				t.Fatalf("prefix %v bucket %d = %d, want %d", p, i, sk2.counts[i], c)
			}
		}
		if st2.updated[p] != st.updated[p] {
			t.Errorf("prefix %v freshness = %d, want %d", p, st2.updated[p], st.updated[p])
		}
	}
	// Compared through the ring's accessors: the in-memory ring also counts
	// responses per probe, which the format does not carry.
	st.open.Range(func(a ipaddr.Addr, want *core.OpenProbes) {
		if got := st2.open.Lookup(a); !sameOpenProbes(got, want) {
			t.Errorf("open %v = %v, want %v", a, got, want)
		}
	})
	// Canonical: re-encoding the decoded store is byte-identical.
	var buf2 bytes.Buffer
	if err := EncodeCheckpoint(&buf2, st2, epoch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encoded checkpoint differs from the original encoding")
	}
}

// sameOpenProbes reports whether two rings hold the same probes in the same
// states, as far as the checkpoint format records them.
func sameOpenProbes(a, b *core.OpenProbes) bool {
	if a == nil || b == nil || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Send(i) != b.Send(i) || a.Resolved(i) != b.Resolved(i) {
			return false
		}
	}
	return true
}

// TestCheckpointGolden pins the on-disk format: the SHA-256 of the
// checkpoint of ckptTestStore under its fixed clock was captured from the
// store as it stood before its open-probe state moved onto core's kernel
// ring and per-/24 blocks. Matching it, and decoding those bytes back to a
// store that re-encodes identically, shows checkpoints written before the
// change still recover.
func TestCheckpointGolden(t *testing.T) {
	const want = "0008d56378a3fd0e98322794145f6630379be24b586de74959625abf56b0f274"
	now := int64(1_000_000_000)
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, ckptTestStore(&now), 42); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("checkpoint digest %x, pinned %s", sum, want)
	}
	st, epoch, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil || epoch != 42 {
		t.Fatalf("decoding the pinned checkpoint: epoch %d, %v", epoch, err)
	}
	var again bytes.Buffer
	if err := EncodeCheckpoint(&again, st, epoch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("the decoded pinned checkpoint re-encodes differently")
	}
}

// TestCheckpointRecoveryByteIdentity pins the recovery invariant end to end:
// a store checkpointed after a publish, recovered through Checkpointer.Load
// and republished via Advisor.Restore, serves a snapshot byte-identical to
// the one the original process published — same advice, same epoch, no
// fabrication. Recovery also restores the open-probe attribution state, so a
// delayed response arriving after the restart still credits a probe opened
// before it.
func TestCheckpointRecoveryByteIdentity(t *testing.T) {
	dir := t.TempDir()
	now := int64(1_000_000_000)
	st := ckptTestStore(&now)

	adv := New()
	snap := adv.Publish(st)
	var want bytes.Buffer
	if err := snap.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	ck := &Checkpointer{Dir: dir}
	if _, err := ck.Save(st, snap.Epoch()); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh checkpointer, store, and advisor.
	st2, epoch, rs, err := (&Checkpointer{Dir: dir}).Load()
	if err != nil {
		t.Fatal(err)
	}
	if st2 == nil || epoch != snap.Epoch() || rs.Skipped != 0 {
		t.Fatalf("Load = store %v, epoch %d, stats %+v; want epoch %d", st2 != nil, epoch, rs, snap.Epoch())
	}
	adv2 := New()
	var got bytes.Buffer
	if err := adv2.Restore(st2, epoch).WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("recovered snapshot differs from published:\nwant %s\ngot  %s", want.Bytes(), got.Bytes())
	}

	// The next publish continues the epoch sequence from the recovered one.
	if e := adv2.Publish(st2).Epoch(); e != epoch+1 {
		t.Errorf("post-recovery publish epoch = %d, want %d", e, epoch+1)
	}

	// Post-recovery delayed attribution: 10.0.2.1 has two unresolved open
	// probes from before the checkpoint (sent at 102s and 103s); a late
	// response now credits the newest one.
	delayedBefore := st2.delayed
	st2.Observe(survey.Record{Type: survey.RecUnmatched, Addr: 0x0a000201, When: 110 * time.Second})
	if st2.delayed != delayedBefore+1 {
		t.Errorf("delayed = %d after post-recovery unmatched, want %d", st2.delayed, delayedBefore+1)
	}
}

func TestCheckpointGenerationGC(t *testing.T) {
	dir := t.TempDir()
	now := int64(1)
	st := ckptTestStore(&now)
	ck := &Checkpointer{Dir: dir, Keep: 2}
	for epoch := uint64(1); epoch <= 5; epoch++ {
		if _, err := ck.Save(st, epoch); err != nil {
			t.Fatal(err)
		}
	}
	names := ck.generations()
	if len(names) != 2 || names[0] != genName(4) || names[1] != genName(5) {
		t.Fatalf("generations after GC = %v, want [%s %s]", names, genName(4), genName(5))
	}
	_, epoch, _, err := ck.Load()
	if err != nil || epoch != 5 {
		t.Errorf("Load = epoch %d, %v; want 5", epoch, err)
	}
}

func TestCheckpointRecoverySkipsInvalidGenerations(t *testing.T) {
	dir := t.TempDir()
	now := int64(1)
	st := ckptTestStore(&now)
	ck := &Checkpointer{Dir: dir, Keep: 10}
	if _, err := ck.Save(st, 1); err != nil {
		t.Fatal(err)
	}
	st.Add(0x0a00f001, 250*time.Millisecond)
	if _, err := ck.Save(st, 2); err != nil {
		t.Fatal(err)
	}
	st.Add(0x0a00f101, 350*time.Millisecond)
	if _, err := ck.Save(st, 3); err != nil {
		t.Fatal(err)
	}

	// Newest truncated (a crash mid-write), second-newest bit-rotted: both
	// must be skipped, recovery lands on generation 1.
	gen3 := filepath.Join(dir, genName(3))
	fi, err := os.Stat(gen3)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(gen3, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	gen2 := filepath.Join(dir, genName(2))
	b, err := os.ReadFile(gen2)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x10
	if err := os.WriteFile(gen2, b, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, epoch, rs, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st2 == nil || epoch != 1 {
		t.Fatalf("Load = store %v, epoch %d; want epoch 1", st2 != nil, epoch)
	}
	if rs.Candidates != 3 || rs.Skipped != 2 {
		t.Errorf("recovery stats = %+v, want 3 candidates, 2 skipped", rs)
	}
}

// TestCheckpointCorruptionRejected drives the checkpoint through the shared
// fault layer's corrupting wrappers: a checkpoint written through a
// CorruptWriter, or read back through a CorruptReader, must fail decode with
// ErrCheckpointCorrupt — and every possible single-byte tamper of a valid
// checkpoint must be caught (CRC-32 detects all 8-bit burst errors).
func TestCheckpointCorruptionRejected(t *testing.T) {
	now := int64(1_000_000_000)
	st := ckptTestStore(&now)
	var clean bytes.Buffer
	if err := EncodeCheckpoint(&clean, st, 7); err != nil {
		t.Fatal(err)
	}

	plan := &faults.Plan{Seed: 11, Data: faults.DataConfig{FlipRate: 0.01}}
	var corrupted bytes.Buffer
	if err := EncodeCheckpoint(plan.CorruptWriter(&corrupted), st, 7); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(clean.Bytes(), corrupted.Bytes()) {
		t.Fatal("fault plan flipped no bytes; raise FlipRate or change the seed")
	}
	if _, _, err := DecodeCheckpoint(bytes.NewReader(corrupted.Bytes())); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("CorruptWriter checkpoint decoded: err = %v, want ErrCheckpointCorrupt", err)
	}
	if _, _, err := DecodeCheckpoint(plan.CorruptReader(bytes.NewReader(clean.Bytes()))); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("CorruptReader checkpoint decoded: err = %v, want ErrCheckpointCorrupt", err)
	}

	tampered := make([]byte, clean.Len())
	for off := 0; off < len(tampered); off++ {
		copy(tampered, clean.Bytes())
		tampered[off] ^= 0x01
		if _, _, err := DecodeCheckpoint(bytes.NewReader(tampered)); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("single-byte tamper at offset %d decoded: err = %v", off, err)
		}
	}

	// Truncation at every point is likewise rejected.
	for _, frac := range []int{1, 2, 3} {
		cut := clean.Bytes()[:clean.Len()*frac/4]
		if _, _, err := DecodeCheckpoint(bytes.NewReader(cut)); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("truncation to %d/4 decoded: err = %v", frac, err)
		}
	}
	// Trailing garbage after a valid checkpoint is rejected too.
	padded := append(append([]byte{}, clean.Bytes()...), 0)
	if _, _, err := DecodeCheckpoint(bytes.NewReader(padded)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("trailing garbage decoded: err = %v", err)
	}
}

func TestCheckpointFreshStart(t *testing.T) {
	ck := &Checkpointer{Dir: filepath.Join(t.TempDir(), "never-created")}
	st, epoch, rs, err := ck.Load()
	if err != nil || st != nil || epoch != 0 || rs.Candidates != 0 {
		t.Errorf("Load on missing dir = %v, %d, %+v, %v; want fresh start", st, epoch, rs, err)
	}
}

func TestCheckpointAge(t *testing.T) {
	if got := CheckpointAge(nil, 100); got != 0 {
		t.Errorf("nil store age = %v, want 0", got)
	}
	if got := CheckpointAge(NewStore(), 100); got != 0 {
		t.Errorf("empty store age = %v, want 0", got)
	}
	st := NewStore()
	now := int64(50 * time.Second)
	st.SetClock(func() int64 { return now })
	st.Add(0x0a000001, time.Millisecond)
	now = int64(80 * time.Second)
	st.Add(0x0a000101, time.Millisecond)
	if got := CheckpointAge(st, int64(95*time.Second)); got != 15*time.Second {
		t.Errorf("age = %v, want 15s (newest stamp wins)", got)
	}
}
