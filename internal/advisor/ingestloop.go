package advisor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"timeouts/internal/obs"
	"timeouts/internal/survey"
	"timeouts/internal/xrand"
)

// ErrSkipBudget reports that lenient sources skipped more corrupt records
// than IngestConfig.MaxSkip allows — the loop's terminal "this feed is
// mostly noise" error, matchable with errors.Is.
var ErrSkipBudget = errors.New("advisor: ingest corrupt-record skip budget exceeded")

// Resilient continuous ingest: RunIngest supervises a record source through
// a bounded, batched queue into the store, republishing advice as it goes.
// The loop is built to survive the three ways a long-running feed fails —
// the source stops opening (backoff and retry with jitter), records arrive
// corrupt (count, skip, continue, within an error budget), and the consumer
// falls behind (bounded queue backpressure, never unbounded memory) —
// because an advisor that dies with its feed takes the whole serving plane
// down with it.

// siteIngestBackoff salts the backoff jitter hash.
const siteIngestBackoff uint64 = 0x696e6762 // "ingb"

// IngestConfig configures RunIngest. Open is required; everything else has a
// production default.
type IngestConfig struct {
	// Open produces the record source to tail; it is called once at start
	// and again after every EOF (when tailing) or source error. Each call
	// should return a fresh source positioned at the records the caller
	// wants re-read — typically reopening a growing file or redialing a
	// feed. Sources that also satisfy survey.StatSource get their per-cause
	// skip counts harvested into the loop's stats.
	Open func() (survey.RecordSource, error)
	// Queue bounds the records waiting between the reader and the store
	// (default 1024). A full queue blocks the reader — backpressure —
	// instead of growing memory. The consumer takes every waiting record
	// in one hand-off, so it works through at most Queue records at a time.
	Queue int
	// Backoff is the initial retry delay after a failed open or a source
	// error (default 100ms), doubling per consecutive failure up to
	// BackoffMax (default 30s), with ±50% deterministic jitter derived from
	// Seed so restarts don't synchronize.
	Backoff    time.Duration
	BackoffMax time.Duration
	// Seed drives the jitter (and nothing else).
	Seed uint64
	// Tail is how many times to reopen the source after a clean EOF:
	// 0 ingests a single pass and stops; negative tails forever. Source
	// errors always reopen regardless of Tail — they are failures to
	// retry, not ends to respect.
	Tail int
	// PublishEvery republishes advice after every N records consumed
	// (default 4096; the final publish always happens).
	PublishEvery uint64
	// CheckpointEvery checkpoints after every N records consumed, aligned
	// to the publish that precedes it (0 = only the final checkpoint).
	CheckpointEvery uint64
	// MaxSkip is the corrupt-record budget: once more than MaxSkip records
	// have been skipped by lenient sources, the loop stops with an error —
	// a feed that is mostly noise should page someone, not quietly thin
	// the advice. 0 means unlimited.
	MaxSkip uint64
	// Progress, when set, is updated live as the loop runs — records
	// consumed, current queue depth, active backoff, last publish time — so
	// /healthz and /metrics can report ingest lag while the loop is still
	// inside RunIngest (RegisterIngestObs only fires after it returns).
	Progress *IngestProgress
	// Obs, when set, receives the loop's diagnostic high-water gauges
	// (advisor.ingest.loop.queue_hwm, advisor.ingest.loop.backoff_hwm_ns).
	Obs *obs.Registry
	// Trace, when set, records wall-clock spans for each publish and
	// checkpoint the loop performs (ingest.publish, ingest.checkpoint).
	Trace *obs.Tracer
}

// IngestProgress is the live, concurrently-readable view of a running
// ingest loop, shared between RunIngest (writer) and the serve plane's
// /healthz and /metrics handlers (readers). It counts records, not
// hand-offs, but is updated once per hand-off: Records advances a batch at
// a time. All methods are nil-safe, so a handler can hold an optional
// *IngestProgress without guards.
type IngestProgress struct {
	records   atomic.Uint64
	queued    atomic.Int64
	backoffNS atomic.Int64
}

// Records returns how many records have reached the store so far.
func (p *IngestProgress) Records() uint64 {
	if p == nil {
		return 0
	}
	return p.records.Load()
}

// Queued returns the ingest queue depth at the last hand-off — the records
// the consumer found waiting between the reader and the store. A
// persistently full queue (Queue records) means the consumer (store +
// publish + checkpoint) is the bottleneck.
func (p *IngestProgress) Queued() int64 {
	if p == nil {
		return 0
	}
	return p.queued.Load()
}

// Backoff returns the backoff delay the reader is currently sleeping
// through (zero when the source is healthy).
func (p *IngestProgress) Backoff() time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.backoffNS.Load())
}

// CollectProm exports the live ingest series for /metrics scrapes.
func (p *IngestProgress) CollectProm(w *obs.PromWriter) {
	if p == nil {
		return
	}
	w.Type("advisor_ingest_live_records", "counter")
	w.Sample("advisor_ingest_live_records", float64(p.Records()))
	w.Type("advisor_ingest_queue_depth", "gauge")
	w.Sample("advisor_ingest_queue_depth", float64(p.Queued()))
	w.Type("advisor_ingest_backoff_seconds", "gauge")
	w.Sample("advisor_ingest_backoff_seconds", p.Backoff().Seconds())
}

// noteBatch records n consumed records from a hand-off that found depth
// records waiting.
func (p *IngestProgress) noteBatch(n uint64, depth int64) {
	if p == nil {
		return
	}
	p.records.Add(n)
	p.queued.Store(depth)
}

// setBackoff publishes the backoff the reader is sleeping through (0 clears).
func (p *IngestProgress) setBackoff(d time.Duration) {
	if p == nil {
		return
	}
	p.backoffNS.Store(int64(d))
}

// IngestStats reports what one RunIngest did.
type IngestStats struct {
	// Records is how many records reached the store.
	Records uint64
	// Skipped is how many corrupt records lenient sources dropped.
	Skipped uint64
	// Reopens counts source reopens (tail EOFs and error retries).
	Reopens uint64
	// SourceErrors counts failed opens and mid-stream source errors.
	SourceErrors uint64
	// Publishes and Checkpoints count advice republishes and durable saves,
	// final ones included.
	Publishes   uint64
	Checkpoints uint64
}

// ingestCounters is the reader/consumer-shared form of IngestStats.
type ingestCounters struct {
	skipped      atomic.Uint64
	reopens      atomic.Uint64
	sourceErrors atomic.Uint64
}

// backoffDelay returns the jittered exponential delay for the attempt-th
// consecutive failure (attempt counts from 0).
func (cfg *IngestConfig) backoffDelay(attempt uint64) time.Duration {
	base := cfg.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := cfg.BackoffMax
	if max <= 0 {
		max = 30 * time.Second
	}
	d := base
	for i := uint64(0); i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// ±50% deterministic jitter: restarts spread instead of thundering.
	j := 0.5 + xrand.HashFloat(cfg.Seed, siteIngestBackoff, attempt)
	return time.Duration(float64(d) * j)
}

// backoffSleep publishes the retry delay (progress gauge + high-water metric)
// for the attempt-th consecutive failure, sleeps it out, and clears the
// published backoff — so /healthz and /metrics show the reader is in backoff
// while it is, not after.
func backoffSleep(ctx context.Context, cfg *IngestConfig, attempt uint64) bool {
	d := cfg.backoffDelay(attempt)
	cfg.Progress.setBackoff(d)
	cfg.Obs.DiagGauge("advisor.ingest.loop.backoff_hwm_ns").Observe(int64(d))
	ok := sleep(ctx, d)
	cfg.Progress.setBackoff(0)
	return ok
}

// sleep waits d or until ctx is done, reporting whether the wait completed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ingestQueue is RunIngest's bounded reader→consumer hand-off. The reader
// appends each record to the queue's buffer under a mutex; the consumer
// takes the whole buffer at once, leaving the one it just finished in its
// place. A busy consumer thus pays one lock per batch of up to Queue records
// instead of one channel receive per record, while every record is the
// consumer's to take the moment it is queued — a reader blocked in a quiet
// source's Read holds nothing back, so no record waits for a batch to fill.
// Two buffers circulate, so steady-state hand-offs allocate nothing.
type ingestQueue struct {
	mu    sync.Mutex
	recs  []survey.Record // waiting, in read order
	limit int             // the reader blocks while recs holds this many
	ready chan struct{}   // doorbell: recs went from empty to non-empty
	room  chan struct{}   // doorbell: the consumer emptied a full recs
}

func newIngestQueue(limit int) *ingestQueue {
	return &ingestQueue{
		recs:  make([]survey.Record, 0, limit),
		limit: limit,
		ready: make(chan struct{}, 1),
		room:  make(chan struct{}, 1),
	}
}

// post rings a doorbell without blocking: one pending post wakes the
// waiter, who re-checks the queue under the lock, so extra posts can drop.
func post(bell chan struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}

// put queues rec, blocking while the queue is full (backpressure). It
// reports false, leaving rec unqueued, once done has closed, so a stopped
// reader stops at its next record; the consumer, not the reader, keeps
// records read after a cancel out of the store.
func (q *ingestQueue) put(done <-chan struct{}, rec survey.Record) bool {
	select {
	case <-done:
		return false
	default:
	}
	q.mu.Lock()
	for len(q.recs) >= q.limit {
		q.mu.Unlock()
		select {
		case <-q.room:
		case <-done:
			return false
		}
		q.mu.Lock()
	}
	q.recs = append(q.recs, rec)
	first := len(q.recs) == 1
	q.mu.Unlock()
	if first {
		post(q.ready)
	}
	return true
}

// take returns every waiting record and makes spare, emptied, the queue's
// buffer; the caller owns the returned batch until it passes it back as
// the next spare.
func (q *ingestQueue) take(spare []survey.Record) []survey.Record {
	q.mu.Lock()
	batch := q.recs
	q.recs = spare[:0]
	q.mu.Unlock()
	if len(batch) >= q.limit {
		post(q.room)
	}
	return batch
}

// RunIngest tails cfg.Open into st, republishing via adv and checkpointing
// via ck (both optional: nil adv skips publishing, nil ck no-ops saves), until
// the source is exhausted (per Tail), the skip budget is blown, or ctx is
// cancelled. A reader goroutine hands records to the consumer in batches
// through an ingestQueue; the consumer feeds them to the store one by one,
// so publishes land after exactly every PublishEvery-th record wherever the
// batch boundaries fall. A sample's freshness stamp is the store clock read
// at the hand-off that delivered it (or after the publish or checkpoint
// that preceded it in the batch), not one read per sample. Cancellation is
// the drain path and returns nil: the consumer stops before its next
// record, waits for the reader to return from its Read in progress,
// publishes what the store holds, writes a final checkpoint, and hands
// back. The returned stats are complete in every case.
//
// Observability counters (advisor.ingest.loop.*) register on reg if the
// caller wires one via RegisterIngestObs; RunIngest itself stays free of
// registry state so concurrent tests can run loops without sharing metrics.
func RunIngest(ctx context.Context, cfg IngestConfig, st *Store, adv *Advisor, ck *Checkpointer) (IngestStats, error) {
	if cfg.Open == nil {
		return IngestStats{}, fmt.Errorf("advisor: RunIngest needs an Open function")
	}
	queue := cfg.Queue
	if queue <= 0 {
		queue = 1024
	}
	publishEvery := cfg.PublishEvery
	if publishEvery == 0 {
		publishEvery = 4096
	}

	var ctrs ingestCounters
	q := newIngestQueue(queue)
	readErr := make(chan error, 1) // the reader's terminal error, if any
	queueHWM := cfg.Obs.DiagGauge("advisor.ingest.loop.queue_hwm")

	rctx, stopReader := context.WithCancel(ctx)
	defer stopReader()
	go func() {
		readErr <- readLoop(rctx, &cfg, &ctrs, q)
	}()

	var stats IngestStats
	var sinceCkpt uint64
	publish := func() uint64 {
		if adv == nil {
			return 0
		}
		end := cfg.Trace.StartWall("ingest.publish")
		epoch := adv.Publish(st).Epoch()
		end()
		stats.Publishes++
		return epoch
	}
	checkpoint := func(epoch uint64) error {
		end := cfg.Trace.StartWall("ingest.checkpoint")
		_, err := ck.Save(st, epoch)
		end()
		return err
	}
	finish := func(terminal error) (IngestStats, error) {
		stats.Skipped = ctrs.skipped.Load()
		stats.Reopens = ctrs.reopens.Load()
		stats.SourceErrors = ctrs.sourceErrors.Load()
		epoch := publish()
		if ck != nil {
			if err := checkpoint(epoch); err != nil {
				if terminal == nil {
					terminal = fmt.Errorf("advisor: final checkpoint: %w", err)
				}
			} else {
				stats.Checkpoints++
			}
		}
		return stats, terminal
	}
	// consume feeds one batch to the store, publishing (and checkpointing)
	// after every publishEvery-th record. It checks ctx before each record
	// and reports false, the rest of the batch unconsumed, once ctx is done.
	// The batch's samples share one store clock reading, taken again after
	// each publish or checkpoint, which can take longer than the batch.
	done := ctx.Done()
	consume := func(batch []survey.Record) bool {
		depth := int64(len(batch))
		queueHWM.Observe(depth)
		st.holdClock()
		defer st.releaseClock()
		for i, rec := range batch {
			select {
			case <-done:
				cfg.Progress.noteBatch(uint64(i), depth)
				return false
			default:
			}
			st.Observe(rec)
			stats.Records++
			sinceCkpt++
			if stats.Records%publishEvery == 0 {
				epoch := publish()
				if cfg.CheckpointEvery > 0 && sinceCkpt >= cfg.CheckpointEvery && ck != nil {
					if err := checkpoint(epoch); err == nil {
						stats.Checkpoints++
					}
					sinceCkpt = 0
				}
				st.holdClock()
			}
		}
		cfg.Progress.noteBatch(uint64(len(batch)), depth)
		return true
	}

	spare := make([]survey.Record, 0, queue)
	for {
		select {
		case <-done:
		case <-q.ready:
			batch := q.take(spare)
			if consume(batch) {
				spare = batch
				continue
			}
		case err := <-readErr:
			// The reader has stopped; what it queued last still lands,
			// unless ctx is done.
			consume(q.take(spare))
			if err == context.Canceled {
				err = nil // cancellation is the drain path
			}
			return finish(err)
		}
		// Drain: stop the reader, consume nothing further, keep what the
		// store already holds. The reader stops once its Read in progress
		// returns; waiting for it lets its last skip harvest reach the stats.
		stopReader()
		<-readErr
		return finish(nil)
	}
}

// readLoop is RunIngest's reader side: open the source, pump records into q
// (blocking on a full queue — backpressure), harvest skip stats, back off
// and reopen on failure. It returns nil on a clean end of input,
// context.Canceled when stopped, or the terminal error (skip budget blown).
// Skip stats are harvested after every Read only under a MaxSkip budget,
// which must be checked as they grow; otherwise once per source, when it
// ends by EOF, error or cancel.
func readLoop(ctx context.Context, cfg *IngestConfig, ctrs *ingestCounters, q *ingestQueue) error {
	var failures uint64 // consecutive, for backoff
	var passes int      // clean EOFs seen, for Tail
	for {
		if ctx.Err() != nil {
			return context.Canceled
		}
		src, err := cfg.Open()
		if err != nil {
			ctrs.sourceErrors.Add(1)
			if !backoffSleep(ctx, cfg, failures) {
				return context.Canceled
			}
			failures++
			ctrs.reopens.Add(1)
			continue
		}
		failures = 0
		stat, _ := src.(survey.StatSource)
		harvested := uint64(0) // this source's skips already folded into ctrs
		harvest := func() {
			if stat == nil {
				return
			}
			if s := stat.Stats().Skipped(); s > harvested {
				ctrs.skipped.Add(s - harvested)
				harvested = s
			}
		}
		overBudget := func() error {
			if sk := ctrs.skipped.Load(); sk > cfg.MaxSkip {
				return fmt.Errorf("%w: %d corrupt records (budget %d)",
					ErrSkipBudget, sk, cfg.MaxSkip)
			}
			return nil
		}
		budget := cfg.MaxSkip > 0
		srcErr := func() error {
			for {
				rec, err := src.Read()
				// Enforce the budget on every read — including the EOF one,
				// so an all-corrupt source still trips it — and before
				// queueing, so a lenient source that skips unboundedly
				// between two good records cannot outrun it.
				if budget {
					harvest()
					if berr := overBudget(); berr != nil {
						return berr
					}
				}
				if err != nil {
					return err
				}
				if !q.put(ctx.Done(), rec) {
					return context.Canceled
				}
			}
		}()
		harvest()
		switch {
		case srcErr == io.EOF:
			if cfg.Tail == 0 || (cfg.Tail > 0 && passes >= cfg.Tail) {
				return nil
			}
			passes++
			ctrs.reopens.Add(1)
		case srcErr == context.Canceled:
			return context.Canceled
		case errors.Is(srcErr, ErrSkipBudget):
			return srcErr
		default:
			ctrs.sourceErrors.Add(1)
			if !backoffSleep(ctx, cfg, failures) {
				return context.Canceled
			}
			failures++
			ctrs.reopens.Add(1)
		}
	}
}

// RegisterIngestObs folds one RunIngest's stats into reg's diagnostic
// counters, so long-running daemons expose ingest health without the loop
// itself carrying registry state.
func RegisterIngestObs(reg *obs.Registry, s IngestStats) {
	reg.DiagCounter("advisor.ingest.loop.records").Add(s.Records)
	reg.DiagCounter("advisor.ingest.loop.skipped").Add(s.Skipped)
	reg.DiagCounter("advisor.ingest.loop.reopens").Add(s.Reopens)
	reg.DiagCounter("advisor.ingest.loop.source_errors").Add(s.SourceErrors)
	reg.DiagCounter("advisor.ingest.loop.publishes").Add(s.Publishes)
	reg.DiagCounter("advisor.ingest.loop.checkpoints").Add(s.Checkpoints)
}
