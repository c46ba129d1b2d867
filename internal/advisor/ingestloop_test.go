package advisor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
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
			return &sliceSource{recs: recs}, nil
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

// cutSource passes its source's records through until it has returned n,
// then fails, as a feed dying mid-read would.
type cutSource struct {
	survey.StatSource
	n int
}

func (s *cutSource) Read() (survey.Record, error) {
	if s.n == 0 {
		return survey.Record{}, errors.New("connection reset")
	}
	s.n--
	return s.StatSource.Read()
}

// TestRunIngestReopensAfterSourceError pins the reopen contract: Open
// returns the feed from its first record, and RunIngest discards what a
// reopened source repeats. Two opens die partway through the same 60-record
// feed and a third delivers it whole; the store must hold each record once,
// byte for byte a store fed the feed directly, and a lenient source's skip
// count must count each corrupt row once, not once per pass over it.
func TestRunIngestReopensAfterSourceError(t *testing.T) {
	recs := ingestRecs(60)
	for _, tc := range []struct {
		name    string
		data    []byte
		skipped uint64
	}{
		{"clean", corruptCSV(t, recs, 0), 0},
		{"corrupt-rows", interleavedCSV(t, recs), 60}, // one before each record
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opens int
			cfg := IngestConfig{
				Open: func() (survey.RecordSource, error) {
					src, _, err := survey.OpenSourceLenient(bytes.NewReader(tc.data))
					if err != nil {
						return nil, err
					}
					switch opens++; opens {
					case 1:
						return &cutSource{src, 10}, nil
					case 2:
						return &cutSource{src, 25}, nil
					default:
						return src, nil
					}
				},
				Backoff: time.Millisecond,
			}
			st := NewStore()
			adv := New()
			stats, err := RunIngest(context.Background(), cfg, st, adv, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Records != 60 || st.Records() != 60 {
				t.Errorf("Records = %d (store %d), want 60: each record once", stats.Records, st.Records())
			}
			if stats.Skipped != tc.skipped {
				t.Errorf("Skipped = %d, want %d: each corrupt row once", stats.Skipped, tc.skipped)
			}
			if stats.SourceErrors != 2 || stats.Reopens != 2 {
				t.Errorf("SourceErrors = %d, Reopens = %d; want 2 and 2", stats.SourceErrors, stats.Reopens)
			}
			src, _, err := survey.OpenSourceLenient(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			direct := NewStore()
			if err := direct.Consume(src); err != nil {
				t.Fatal(err)
			}
			var got, want bytes.Buffer
			if err := adv.Current().WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if err := direct.Snapshot(adv.Current().Epoch()).WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Error("snapshot after reopens differs from a store fed each record once")
			}
		})
	}
}

// TestRunIngestPublishAndCheckpointCadence pins the record cadence of
// publishes (every 4096th record) and checkpoints (at the first publish
// after every CheckpointEvery records), and that the final advice equals,
// byte for byte, a store fed the same records and published directly at the
// same epoch.
func TestRunIngestPublishAndCheckpointCadence(t *testing.T) {
	for _, tc := range []struct {
		records                int
		ckptEvery              uint64
		publishes, checkpoints uint64
	}{
		// Publishes at records 4096 and 8192 plus the final; a checkpoint
		// at each.
		{records: 2*publishEvery + 1000, ckptEvery: publishEvery, publishes: 3, checkpoints: 3},
		// Publishes at 4096, 8192 and 12288 plus the final; a checkpoint at
		// 8192, the first publish 6000 records in, plus the final.
		{records: 3 * publishEvery, ckptEvery: 6000, publishes: 4, checkpoints: 2},
	} {
		t.Run(fmt.Sprintf("n%d-ckpt%d", tc.records, tc.ckptEvery), func(t *testing.T) {
			dir := t.TempDir()
			recs := ingestRecs(tc.records)
			cfg := IngestConfig{
				Open: func() (survey.RecordSource, error) {
					return &sliceSource{recs: recs}, nil
				},
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
// a feed that bursts and goes quiet. Every record consumed before the stall
// must show in the loop's progress while the stalled Read blocks.
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
	const k = 100
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
// records: no record returned by the Read that cancelled, or by any later
// one, reaches the store.
func TestRunIngestCancelStopsBeforeNextRecord(t *testing.T) {
	const n = 700
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelSource{n: n, cancel: cancel}
	st := NewStore()
	adv := New()
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) { return src, nil },
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

// infiniteSource generates records forever, as a live feed would.
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
// mid-feed returns nil (not an error), publishes what was ingested, and
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
		Open: func() (survey.RecordSource, error) { return &infiniteSource{}, nil },
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

// failingSource opens fine and fails on every Read.
type failingSource struct{}

func (failingSource) Read() (survey.Record, error) {
	return survey.Record{}, errors.New("read error")
}

// TestRunIngestBacksOffWhenReopensStoreNothing: a feed that opens and then
// fails before storing a record must back off as one that will not open
// does, doubling per pass, not reopen at the base delay forever. The loop
// is cancelled at the fifth open, so its backoff high-water mark must be the
// largest of the first five delays.
func TestRunIngestBacksOffWhenReopensStoreNothing(t *testing.T) {
	const opens = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	var n int
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			if n++; n == opens {
				cancel()
			}
			return failingSource{}, nil
		},
		Backoff:    time.Millisecond,
		BackoffMax: time.Second,
		Seed:       3,
		Obs:        reg,
	}
	stats, err := RunIngest(ctx, cfg, NewStore(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != opens || stats.SourceErrors != opens || stats.Records != 0 {
		t.Fatalf("opens %d, SourceErrors %d, Records %d; want %d, %d, 0", n, stats.SourceErrors, stats.Records, opens, opens)
	}
	var want time.Duration
	for k := uint64(0); k < opens; k++ {
		want = max(want, cfg.backoffDelay(k))
	}
	if got := time.Duration(reg.DiagGauge("advisor.ingest.loop.backoff_hwm_ns").Value()); got != want {
		t.Errorf("backoff high-water mark %v, want %v (the first failure's delay is %v)", got, want, cfg.backoffDelay(0))
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
// with no skip budget, where the loop harvests its source's skip count
// once, as it stops: cancelled inside its n-th Read, a source that skipped
// one corrupt row per record must be reported as exactly n skips, although
// the record that Read returns never reaches the store.
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

// TestRunIngestStampsPublishClock pins per-publish freshness. Every record
// reaches its own /24, so each prefix's stamp is its one sample's. The store
// clock advances on every read and logs how many records the store held at
// each. The feed dies partway through its second publish interval and is
// reopened, and every publish also checkpoints. Each sample must carry the
// last reading taken before the store observed it, taken less than one
// publish interval of records earlier, and the clock must be read at most
// once per open and once per in-stream publish (its checkpoint included),
// not per sample.
func TestRunIngestStampsPublishClock(t *testing.T) {
	const n, cut = 2*publishEvery + 500, 5000
	recs := make([]survey.Record, n)
	for i := range recs {
		recs[i] = survey.Record{
			Type: survey.RecMatched,
			Addr: ipaddr.Addr(0x0a000001 + uint32(i)<<8),
			When: time.Duration(i+1) * time.Second,
			RTT:  time.Duration(1+i%500) * time.Millisecond,
		}
	}
	st := NewStore()
	type reading struct {
		at      int64
		records uint64 // the store's record count when the clock was read
	}
	var readings []reading
	st.SetClock(func() int64 {
		readings = append(readings, reading{int64(len(readings) + 1), st.Records()})
		return int64(len(readings))
	})
	var opens int
	cfg := IngestConfig{
		Open: func() (survey.RecordSource, error) {
			if opens++; opens == 1 {
				return &cutSource{&statSlice{sliceSource{recs: recs}}, cut}, nil
			}
			return &sliceSource{recs: recs}, nil
		},
		Backoff:         time.Millisecond,
		CheckpointEvery: 1,
	}
	stats, err := RunIngest(context.Background(), cfg, st, New(), &Checkpointer{Dir: t.TempDir()})
	if err != nil || stats.Records != n || stats.Checkpoints != stats.Publishes {
		t.Fatalf("RunIngest = %d records, %d publishes, %d checkpoints, %v; want %d records, a checkpoint per publish",
			stats.Records, stats.Publishes, stats.Checkpoints, err, n)
	}
	if max := opens + n/publishEvery; len(readings) > max {
		t.Errorf("store clock read %d times, want at most %d (%d opens and %d publishes)",
			len(readings), max, opens, n/publishEvery)
	}
	for k, rec := range recs {
		var want reading // the last reading taken before record k+1 was observed
		for _, r := range readings {
			if r.records <= uint64(k) {
				want = r
			}
		}
		if got := st.updated[rec.Addr.Prefix()]; got != want.at || uint64(k)-want.records >= publishEvery {
			t.Fatalf("record %d stamped %d, want %d, read within %d records before it (readings %v)",
				k+1, got, want.at, publishEvery, readings)
		}
	}
	// Direct Observe calls after the loop read the clock per sample again.
	before := len(readings)
	st.Observe(survey.Record{Type: survey.RecMatched, Addr: ipaddr.Addr(0x0b000001), When: time.Hour, RTT: time.Millisecond})
	if len(readings) != before+1 {
		t.Errorf("direct Observe after RunIngest read the clock %d times, want 1", len(readings)-before)
	}
}

// statSlice is a sliceSource that reports (zero) read stats, so cutSource
// can wrap it.
type statSlice struct{ sliceSource }

func (*statSlice) Stats() survey.ReadStats { return survey.ReadStats{} }

// TestRunIngestProgressUnderPolling polls the loop's live progress and its
// published advice from another goroutine, as /healthz and lookups do,
// while RunIngest ingests three and a half publish intervals (raced ten
// times by make advisor-check). Both only move forward, and they end where
// the returned stats do.
func TestRunIngestProgressUnderPolling(t *testing.T) {
	n := 3*publishEvery + publishEvery/2
	recs := ingestRecs(n)
	progress := &IngestProgress{}
	adv := New()
	cfg := IngestConfig{
		Open:     func() (survey.RecordSource, error) { return &sliceSource{recs: recs}, nil },
		Progress: progress,
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var records, epoch, samples uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := progress.Records()
			if r < records {
				t.Errorf("Progress.Records went back from %d to %d", records, r)
				return
			}
			records = r
			if snap := adv.Current(); snap != nil {
				if snap.Epoch() < epoch || snap.Samples() < samples {
					t.Errorf("advice went back from epoch %d (%d samples) to epoch %d (%d samples)",
						epoch, samples, snap.Epoch(), snap.Samples())
					return
				}
				epoch, samples = snap.Epoch(), snap.Samples()
			}
		}
	}()
	stats, err := RunIngest(context.Background(), cfg, NewStore(), adv, nil)
	close(stop)
	wg.Wait()
	if err != nil || stats.Records != uint64(n) {
		t.Fatalf("RunIngest = %d records, %v; want %d, nil", stats.Records, err, n)
	}
	if got := progress.Records(); got != stats.Records {
		t.Errorf("final Progress.Records = %d, want %d", got, stats.Records)
	}
	if cur := adv.Current(); cur.Epoch() != stats.Publishes || cur.Samples() != stats.Records {
		t.Errorf("final advice: epoch %d, %d samples; want epoch %d, %d samples",
			cur.Epoch(), cur.Samples(), stats.Publishes, stats.Records)
	}
}
