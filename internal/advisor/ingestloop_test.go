package advisor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/survey"
)

// ingestRecs builds n unique matched records.
func ingestRecs(n int) []survey.Record {
	recs := make([]survey.Record, n)
	for i := range recs {
		recs[i] = survey.Record{
			Type: survey.RecMatched,
			Addr: ipaddr.Addr(0x0a000001 + uint32(i%64)<<8),
			When: time.Duration(i+1) * time.Second,
			RTT:  time.Duration(1+i%500) * time.Millisecond,
		}
	}
	return recs
}

func TestRunIngestRetriesTransientOpenErrors(t *testing.T) {
	recs := ingestRecs(100)
	var opens atomic.Int64
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			if opens.Add(1) <= 3 {
				return nil, errors.New("feed not up yet")
			}
			return survey.NewSliceSource(recs), nil
		},
		Backoff:    time.Millisecond,
		BackoffMax: 4 * time.Millisecond,
	}
	st := NewStore()
	adv := New()
	stats, err := RunIngest(context.Background(), cfg, st, adv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 100 || st.Records() != 100 {
		t.Errorf("Records = %d (store %d), want 100", stats.Records, st.Records())
	}
	if stats.SourceErrors != 3 || stats.Reopens != 3 {
		t.Errorf("SourceErrors = %d, Reopens = %d; want 3 and 3", stats.SourceErrors, stats.Reopens)
	}
	if stats.Publishes == 0 || adv.Current() == nil {
		t.Error("no advice published")
	}
	if adv.Current().Samples() != 100 {
		t.Errorf("published samples = %d, want 100", adv.Current().Samples())
	}
}

// errAfterSource yields n records then fails mid-stream, exercising the
// reopen-on-source-error path (as a feed dying mid-read would).
type errAfterSource struct {
	recs []survey.Record
	i    int
}

func (s *errAfterSource) Read() (survey.Record, error) {
	if s.i >= len(s.recs) {
		return survey.Record{}, errors.New("connection reset")
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

func TestRunIngestReopensAfterSourceError(t *testing.T) {
	recs := ingestRecs(60)
	var opens atomic.Int64
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			// First two opens die partway through; the third delivers the
			// whole pass. Records before the cut are re-read on reopen —
			// the "fresh source positioned where the caller wants" contract.
			switch opens.Add(1) {
			case 1:
				return &errAfterSource{recs: recs[:10]}, nil
			case 2:
				return &errAfterSource{recs: recs[:25]}, nil
			default:
				return survey.NewSliceSource(recs), nil
			}
		},
		Backoff: time.Millisecond,
	}
	st := NewStore()
	stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 10+25+60 {
		t.Errorf("Records = %d, want 95 (two partial passes + one full)", stats.Records)
	}
	if stats.SourceErrors != 2 || stats.Reopens != 2 {
		t.Errorf("SourceErrors = %d, Reopens = %d; want 2 and 2", stats.SourceErrors, stats.Reopens)
	}
}

// TestRunIngestPublishAndCheckpointCadence pins the record cadence of
// publishes and checkpoints wherever the hand-off's batch boundaries fall
// (the second case's counts line up with no batch size), and that the final
// advice equals, byte for byte, a store fed the same records and published
// directly at the same epoch.
func TestRunIngestPublishAndCheckpointCadence(t *testing.T) {
	for _, tc := range []struct {
		records                 int
		publishEvery, ckptEvery uint64
		publishes, checkpoints  uint64
	}{
		// 64/16 = 4 in-stream publishes plus the final; checkpoints at
		// records 32 and 64 plus the final.
		{records: 64, publishEvery: 16, ckptEvery: 32, publishes: 5, checkpoints: 3},
		// Publishes at 300, 600 and 900 plus the final; a checkpoint at 600
		// plus the final.
		{records: 1000, publishEvery: 300, ckptEvery: 600, publishes: 4, checkpoints: 2},
	} {
		t.Run(fmt.Sprintf("n%d-publish%d-ckpt%d", tc.records, tc.publishEvery, tc.ckptEvery), func(t *testing.T) {
			dir := t.TempDir()
			recs := ingestRecs(tc.records)
			cfg := IngestConfig{
				Open: func() (survey.RecordSource, error) {
					return survey.NewSliceSource(recs), nil
				},
				PublishEvery:    tc.publishEvery,
				CheckpointEvery: tc.ckptEvery,
			}
			st := NewStore()
			now := int64(1)
			st.SetClock(func() int64 { return now })
			adv := New()
			ck := &Checkpointer{Dir: dir, Keep: 10}
			stats, err := RunIngest(context.Background(), cfg, st, adv, ck)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Publishes != tc.publishes {
				t.Errorf("Publishes = %d, want %d", stats.Publishes, tc.publishes)
			}
			if stats.Checkpoints != tc.checkpoints {
				t.Errorf("Checkpoints = %d, want %d", stats.Checkpoints, tc.checkpoints)
			}
			if got := len(ck.generations()); uint64(got) != tc.checkpoints {
				t.Errorf("generations on disk = %d, want %d", got, tc.checkpoints)
			}
			// The newest generation is the final publish's epoch and
			// recovers to the full store.
			st2, epoch, _, err := ck.Load()
			if err != nil {
				t.Fatal(err)
			}
			if epoch != adv.Current().Epoch() {
				t.Errorf("recovered epoch = %d, want %d", epoch, adv.Current().Epoch())
			}
			if st2.Records() != uint64(tc.records) {
				t.Errorf("recovered records = %d, want %d", st2.Records(), tc.records)
			}
			direct := NewStore()
			for _, r := range recs {
				direct.Observe(r)
			}
			var got, want bytes.Buffer
			if err := adv.Current().WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if err := direct.Snapshot(adv.Current().Epoch()).WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Error("final snapshot differs from a store fed the same records directly")
			}
		})
	}
}

// stallSource returns its records, then blocks in Read until released —
// a feed that bursts and goes quiet. Records read before the stall must
// not wait in the reader for a batch that never fills.
type stallSource struct {
	recs    []survey.Record
	i       int
	release chan struct{}
}

func (s *stallSource) Read() (survey.Record, error) {
	if s.i >= len(s.recs) {
		<-s.release
		return survey.Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

func TestRunIngestStalledSourceDelivers(t *testing.T) {
	const k = 100 // well under the default Queue: the queue never fills
	src := &stallSource{recs: ingestRecs(k), release: make(chan struct{})}
	progress := &IngestProgress{}
	cfg := IngestConfig{
		Open:     func() (survey.RecordSource, error) { return src, nil },
		Progress: progress,
	}
	st := NewStore()
	type result struct {
		stats IngestStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
		done <- result{stats, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for progress.Records() != k {
		if time.Now().After(deadline) {
			close(src.release)
			t.Fatalf("Progress.Records = %d while the source stalls, want %d", progress.Records(), k)
		}
		time.Sleep(time.Millisecond)
	}
	close(src.release)
	res := <-done
	if res.err != nil || res.stats.Records != k {
		t.Fatalf("RunIngest = %d records, %v; want %d, nil", res.stats.Records, res.err, k)
	}
}

// cancelSource cancels the loop's context inside its n-th Read and keeps
// returning records after it.
type cancelSource struct {
	infiniteSource
	n      int
	cancel context.CancelFunc
}

func (s *cancelSource) Read() (survey.Record, error) {
	rec, err := s.infiniteSource.Read()
	if s.i == s.n {
		s.cancel()
	}
	return rec, err
}

// TestRunIngestCancelStopsBeforeNextRecord pins that the drain stops between
// records, not only between batches: no record returned by the Read that
// cancelled, or by any later one, reaches the store.
func TestRunIngestCancelStopsBeforeNextRecord(t *testing.T) {
	const n = 700
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelSource{n: n, cancel: cancel}
	st := NewStore()
	adv := New()
	cfg := IngestConfig{
		Open:         func() (survey.RecordSource, error) { return src, nil },
		PublishEvery: 64,
	}
	stats, err := RunIngest(ctx, cfg, st, adv, &Checkpointer{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("RunIngest on cancel = %v, want nil (drain)", err)
	}
	if stats.Records >= n || st.Records() != stats.Records {
		t.Errorf("Records = %d (store %d), want < %d", stats.Records, st.Records(), n)
	}
	if stats.Checkpoints != 1 || adv.Current() == nil || adv.Current().Samples() != stats.Records {
		t.Errorf("drain: checkpoints %d, published %v; want a final publish and checkpoint",
			stats.Checkpoints, adv.Current())
	}
}

// infiniteSource generates records forever — the tail-a-live-feed shape.
type infiniteSource struct{ i int }

func (s *infiniteSource) Read() (survey.Record, error) {
	s.i++
	return survey.Record{
		Type: survey.RecMatched,
		Addr: ipaddr.Addr(0x0a000001 + uint32(s.i%64)<<8),
		When: time.Duration(s.i) * time.Second,
		RTT:  time.Duration(1+s.i%500) * time.Millisecond,
	}, nil
}

// TestRunIngestCancelDrains pins the drain contract: cancelling the context
// mid-tail returns nil (not an error), publishes what was ingested, and
// writes a final checkpoint.
func TestRunIngestCancelDrains(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	st := NewStore()
	now := int64(1)
	st.SetClock(func() int64 { return now })
	adv := New()
	ck := &Checkpointer{Dir: dir}
	cfg := IngestConfig{
		Open:         func() (survey.RecordSource, error) { return &infiniteSource{}, nil },
		PublishEvery: 50,
	}
	go func() {
		// Cancel once records have demonstrably flowed — observed through
		// the atomic snapshot pointer, never the single-writer store.
		for adv.Current() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	stats, err := RunIngest(ctx, cfg, st, adv, ck)
	if err != nil {
		t.Fatalf("RunIngest on cancel = %v, want nil (drain)", err)
	}
	if stats.Records == 0 {
		t.Fatal("drained with zero records")
	}
	if adv.Current() == nil || adv.Current().Samples() == 0 {
		t.Error("no final publish on drain")
	}
	if stats.Checkpoints == 0 || len(ck.generations()) == 0 {
		t.Error("no final checkpoint on drain")
	}
	st2, _, _, err := ck.Load()
	if err != nil || st2 == nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
}

func TestRunIngestTailReopensAtEOF(t *testing.T) {
	recs := ingestRecs(20)
	var opens atomic.Int64
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			opens.Add(1)
			return survey.NewSliceSource(recs), nil
		},
		Tail: 2, // first pass + two reopens = three passes
	}
	st := NewStore()
	stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opens.Load() != 3 || stats.Records != 60 || stats.Reopens != 2 {
		t.Errorf("opens = %d, Records = %d, Reopens = %d; want 3, 60, 2",
			opens.Load(), stats.Records, stats.Reopens)
	}
}

// corruptCSV builds a CSV dataset of good records with nBad garbage rows
// interleaved, which the lenient reader skips and counts.
func corruptCSV(t *testing.T, good []survey.Record, nBad int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := survey.NewCSVWriter(&buf)
	for _, r := range good {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	for i := 0; i < nBad; i++ {
		out = append(out, []byte(fmt.Sprintf("garbage,row,%d,?\n", i))...)
	}
	return out
}

func TestRunIngestCountsCorruptRecords(t *testing.T) {
	good := ingestRecs(40)
	data := corruptCSV(t, good, 7)
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			src, _, err := survey.OpenSourceLenient(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return src, nil
		},
	}
	st := NewStore()
	stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 40 || stats.Skipped != 7 {
		t.Errorf("Records = %d, Skipped = %d; want 40 and 7", stats.Records, stats.Skipped)
	}
}

func TestRunIngestSkipBudget(t *testing.T) {
	good := ingestRecs(10)
	data := corruptCSV(t, good, 30)
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			src, _, err := survey.OpenSourceLenient(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return src, nil
		},
		MaxSkip: 5,
	}
	st := NewStore()
	stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
	if !errors.Is(err, ErrSkipBudget) {
		t.Fatalf("err = %v, want ErrSkipBudget", err)
	}
	if stats.Skipped <= 5 {
		t.Errorf("Skipped = %d, want > budget of 5", stats.Skipped)
	}
	// The good records read before the budget blew still landed.
	if stats.Records != 10 {
		t.Errorf("Records = %d, want 10", stats.Records)
	}
}

func TestRunIngestRequiresOpen(t *testing.T) {
	if _, err := RunIngest(context.Background(), IngestConfig{}, NewStore(), nil, nil); err == nil {
		t.Fatal("nil Open accepted")
	}
}

func TestIngestBackoffJitterBounds(t *testing.T) {
	cfg := IngestConfig{Backoff: 100 * time.Millisecond, BackoffMax: 2 * time.Second, Seed: 9}
	prevCap := time.Duration(0)
	for attempt := uint64(0); attempt < 12; attempt++ {
		d := cfg.backoffDelay(attempt)
		base := 100 * time.Millisecond << attempt
		if base > 2*time.Second {
			base = 2 * time.Second
		}
		lo, hi := base/2, base+base/2
		if d < lo || d > hi {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
		}
		if base == 2*time.Second {
			prevCap = d
		}
	}
	if prevCap == 0 {
		t.Error("backoff never reached its cap")
	}
	// Deterministic: same seed, same delays.
	if cfg.backoffDelay(3) != cfg.backoffDelay(3) {
		t.Error("jitter is not deterministic")
	}
}

// slowSource blocks each Read briefly so the bounded queue actually fills
// and drains under ctx control; used to smoke the backpressure path.
type slowSource struct{ i int }

func (s *slowSource) Read() (survey.Record, error) {
	if s.i >= 2000 {
		return survey.Record{}, io.EOF
	}
	s.i++
	return survey.Record{
		Type: survey.RecMatched,
		Addr: ipaddr.Addr(0x0a000001),
		When: time.Duration(s.i) * time.Second,
		RTT:  time.Millisecond,
	}, nil
}

func TestRunIngestBoundedQueue(t *testing.T) {
	cfg := IngestConfig{
		Open:  func() (survey.RecordSource, error) { return &slowSource{}, nil },
		Queue: 4, // tiny queue: the reader must block on the consumer
	}
	st := NewStore()
	stats, err := RunIngest(context.Background(), cfg, st, nil, nil)
	if err != nil || stats.Records != 2000 {
		t.Fatalf("Records = %d, %v; want 2000 through a 4-deep queue", stats.Records, err)
	}
}

// interleavedCSV builds a CSV dataset with a garbage row before every good
// record, so a lenient reader skips exactly one row per record it returns.
func interleavedCSV(t *testing.T, good []survey.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := survey.NewCSVWriter(&buf)
	for _, r := range good {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	out := append([]byte(nil), lines[0]...) // the header row
	for i, l := range lines[1:] {
		if len(l) > 0 {
			out = append(out, fmt.Sprintf("garbage,row,%d,?\n", i)...)
			out = append(out, l...)
		}
	}
	return out
}

// cancelStatSource is a lenient source that cancels the loop's context
// inside its n-th Read, which then takes a while to return, as a Read on a
// slow feed would.
type cancelStatSource struct {
	survey.StatSource
	reads, n int
	cancel   context.CancelFunc
}

func (s *cancelStatSource) Read() (survey.Record, error) {
	rec, err := s.StatSource.Read()
	if s.reads++; s.reads == s.n {
		s.cancel()
		time.Sleep(20 * time.Millisecond)
	}
	return rec, err
}

// TestRunIngestDrainCountsSkips pins IngestStats.Skipped on the drain path
// with no skip budget, where the reader harvests its source's skip count
// once, as it stops: cancelled inside its n-th Read, a source that skipped
// one corrupt row per record must be reported as exactly n skips, although
// the consumer sees the cancel before that Read returns.
func TestRunIngestDrainCountsSkips(t *testing.T) {
	const n = 300
	data := interleavedCSV(t, ingestRecs(2000))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var src *cancelStatSource
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			s, _, err := survey.OpenSourceLenient(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			src = &cancelStatSource{StatSource: s, n: n, cancel: cancel}
			return src, nil
		},
		PublishEvery: 64,
	}
	stats, err := RunIngest(ctx, cfg, NewStore(), New(), nil)
	if err != nil {
		t.Fatalf("RunIngest on cancel = %v, want nil (drain)", err)
	}
	if got := src.Stats().Skipped(); stats.Skipped != n || got != n {
		t.Errorf("Skipped = %d, source skipped %d; want %d", stats.Skipped, got, n)
	}
	if stats.Records >= n {
		t.Errorf("Records = %d, want < %d", stats.Records, n)
	}
}

// TestRunIngestStampsHandoffClock pins per-hand-off freshness. Every record
// reaches its own /24, so each prefix's stamp is its one sample's. The store
// clock advances on every read and logs how many records the store held at
// each; the first read waits until the reader has queued the whole source,
// which then arrives in at most three hand-offs (the take that follows the
// reader's EOF may be empty). Each sample must carry the
// last reading taken before the store observed it — its hand-off's, or the
// one after a publish earlier in the batch — and never a later one, and the
// clock must be read once per hand-off and publish, not per sample.
func TestRunIngestStampsHandoffClock(t *testing.T) {
	const n, every = 600, 100
	recs := make([]survey.Record, n)
	for i := range recs {
		recs[i] = survey.Record{
			Type: survey.RecMatched,
			Addr: ipaddr.Addr(0x0a000001 + uint32(i)<<8),
			When: time.Duration(i+1) * time.Second,
			RTT:  time.Duration(1+i%500) * time.Millisecond,
		}
	}
	drained := make(chan struct{})
	src := &eofSignalSource{recs: recs, eof: drained}
	st := NewStore()
	type reading struct {
		at      int64
		records uint64 // the store's record count when the clock was read
	}
	var readings []reading
	st.SetClock(func() int64 {
		if len(readings) == 0 {
			<-drained
		}
		readings = append(readings, reading{int64(len(readings) + 1), st.Records()})
		return int64(len(readings))
	})
	cfg := IngestConfig{
		Open:         func() (survey.RecordSource, error) { return src, nil },
		PublishEvery: every,
	}
	stats, err := RunIngest(context.Background(), cfg, st, New(), nil)
	if err != nil || stats.Records != n {
		t.Fatalf("RunIngest = %d records, %v; want %d, nil", stats.Records, err, n)
	}
	if max := 3 + n/every; len(readings) > max {
		t.Errorf("store clock read %d times, want at most %d (three hand-offs and %d publishes)",
			len(readings), max, n/every)
	}
	for k, rec := range recs {
		var want int64 // the last reading taken before record k+1 was observed
		for _, r := range readings {
			if r.records <= uint64(k) {
				want = r.at
			}
		}
		if got := st.updated[rec.Addr.Prefix()]; got != want {
			t.Fatalf("record %d stamped %d, want %d (readings %v)", k+1, got, want, readings)
		}
	}
}

// eofSignalSource returns its records, then closes eof at end of stream.
type eofSignalSource struct {
	recs []survey.Record
	i    int
	eof  chan struct{}
}

func (s *eofSignalSource) Read() (survey.Record, error) {
	if s.i >= len(s.recs) {
		if s.eof != nil {
			close(s.eof)
			s.eof = nil
		}
		return survey.Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}
