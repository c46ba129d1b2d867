package advisor

import (
	"context"
	"errors"
	"fmt"
	"io"
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

// Resilient ingest: RunIngest supervises a record source into the store,
// republishing advice as it goes. The loop is built to survive the two ways
// a feed fails — the source stops opening or dies mid-read (backoff with
// jitter, then reopen), and records arrive corrupt (count, skip, continue,
// within an error budget) — because an advisor that dies with its feed takes
// the whole serving plane down with it.

// siteIngestBackoff salts the backoff jitter hash.
const siteIngestBackoff uint64 = 0x696e6762 // "ingb"

// publishEvery is RunIngest's publish cadence in records consumed.
const publishEvery = 4096

// IngestConfig configures RunIngest. Open is required; everything else has a
// production default.
type IngestConfig struct {
	// Open returns the feed from its first record. It is called once at
	// start and again after every failed open or source error; RunIngest
	// discards the records a reopened source repeats, so each record
	// reaches the store once. Sources that also satisfy survey.StatSource
	// get their skip counts harvested into the loop's stats.
	Open func() (survey.RecordSource, error)
	// Backoff is the initial retry delay after a failed open or a source
	// error (default 100ms), doubling per consecutive failure up to
	// BackoffMax (default 30s), with ±50% deterministic jitter derived from
	// Seed so restarts don't synchronize. Only a pass that stores a new
	// record ends a run of failures.
	Backoff    time.Duration
	BackoffMax time.Duration
	// Seed drives the jitter (and nothing else).
	Seed uint64
	// CheckpointEvery checkpoints after every N records consumed, aligned
	// to the publish that precedes it (0 = only the final checkpoint).
	CheckpointEvery uint64
	// MaxSkip is the corrupt-record budget: once more than MaxSkip records
	// have been skipped by lenient sources, the loop stops with an error —
	// a feed that is mostly noise should page someone, not quietly thin
	// the advice. 0 means unlimited.
	MaxSkip uint64
	// Progress, when set, is updated live as the loop runs — records
	// consumed and active backoff — so /healthz and /metrics can report
	// ingest lag while the loop is still inside RunIngest
	// (RegisterIngestObs only fires after it returns).
	Progress *IngestProgress
	// Obs, when set, receives the loop's diagnostic backoff high-water
	// gauge (advisor.ingest.loop.backoff_hwm_ns).
	Obs *obs.Registry
	// Trace, when set, records wall-clock spans for each publish and
	// checkpoint the loop performs (ingest.publish, ingest.checkpoint).
	Trace *obs.Tracer
}

// IngestProgress is the live, concurrently-readable view of a running
// ingest loop, shared between RunIngest (writer) and the serve plane's
// /healthz and /metrics handlers (readers). All methods are nil-safe, so a
// handler can hold an optional *IngestProgress without guards.
type IngestProgress struct {
	records   atomic.Uint64
	backoffNS atomic.Int64
}

// Records returns how many records have reached the store so far.
func (p *IngestProgress) Records() uint64 {
	if p == nil {
		return 0
	}
	return p.records.Load()
}

// Backoff returns the backoff delay the loop is currently sleeping through
// (zero when the source is healthy).
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
	w.Type("advisor_ingest_backoff_seconds", "gauge")
	w.Sample("advisor_ingest_backoff_seconds", p.Backoff().Seconds())
}

// setRecords publishes how many records have reached the store.
func (p *IngestProgress) setRecords(n uint64) {
	if p == nil {
		return
	}
	p.records.Store(n)
}

// setBackoff publishes the backoff the loop is sleeping through (0 clears).
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
	// Reopens counts retries after a failed open or a source error.
	Reopens uint64
	// SourceErrors counts failed opens and mid-stream source errors.
	SourceErrors uint64
	// Publishes and Checkpoints count advice republishes and durable saves,
	// final ones included.
	Publishes   uint64
	Checkpoints uint64
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
// published backoff — so /healthz and /metrics show the loop is in backoff
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

// RunIngest feeds cfg.Open into st on the caller's goroutine, republishing
// via adv and checkpointing via ck (both optional: nil adv skips publishing,
// nil ck no-ops saves), until the source ends, the skip budget is blown, or
// ctx is cancelled. It publishes after every 4096th record and once at the
// end. Source errors reopen the feed after a jittered backoff; the reopened
// source's records up to those already consumed are read and discarded, and
// its skip count is folded in only above the count already harvested. A
// sample's freshness stamp is the store clock read when its source opened or
// after the last publish or checkpoint before it, not one read per sample.
// Cancellation is the drain path and returns nil: once the Read in progress
// returns, the loop consumes nothing further, publishes what the store
// holds, writes a final checkpoint, and hands back. The returned stats are
// complete in every case.
//
// Observability counters (advisor.ingest.loop.*) register on reg if the
// caller wires one via RegisterIngestObs; RunIngest itself stays free of
// registry state so concurrent tests can run loops without sharing metrics.
func RunIngest(ctx context.Context, cfg IngestConfig, st *Store, adv *Advisor, ck *Checkpointer) (IngestStats, error) {
	if cfg.Open == nil {
		return IngestStats{}, fmt.Errorf("advisor: RunIngest needs an Open function")
	}
	defer st.releaseClock()

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

	// consume feeds one source to the store until it ends, returning its
	// error (io.EOF at a clean end), context.Canceled once ctx is done, or
	// the skip-budget error. Skip counts are harvested after every Read only
	// under a MaxSkip budget, which must be checked as they grow — on the
	// EOF Read too, so an all-corrupt source still trips it; otherwise once,
	// when the source ends.
	done := ctx.Done()
	consume := func(src survey.RecordSource) error {
		stat, _ := src.(survey.StatSource)
		harvest := func() {
			if stat == nil {
				return
			}
			if s := stat.Stats().Skipped(); s > stats.Skipped {
				stats.Skipped = s
			}
		}
		defer harvest()
		budget := cfg.MaxSkip > 0
		repeats := stats.Records // a reopened source starts over at record 0
		st.holdClock()
		for {
			rec, err := src.Read()
			if budget {
				harvest()
				if stats.Skipped > cfg.MaxSkip {
					return fmt.Errorf("%w: %d corrupt records (budget %d)",
						ErrSkipBudget, stats.Skipped, cfg.MaxSkip)
				}
			}
			if err != nil {
				return err
			}
			select {
			case <-done:
				return context.Canceled
			default:
			}
			if repeats > 0 {
				repeats--
				continue
			}
			st.Observe(rec)
			stats.Records++
			cfg.Progress.setRecords(stats.Records)
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
	}

	// failures counts consecutive passes that stored no new record: a feed
	// that opens and then fails before delivering anything new backs off as
	// one that will not open does.
	var failures uint64
	for {
		if ctx.Err() != nil {
			return finish(nil)
		}
		src, err := cfg.Open()
		if err == nil {
			stored := stats.Records
			err = consume(src)
			switch {
			case err == io.EOF, err == context.Canceled:
				return finish(nil)
			case errors.Is(err, ErrSkipBudget):
				return finish(err)
			}
			if stats.Records > stored {
				failures = 0
			}
		}
		stats.SourceErrors++
		if !backoffSleep(ctx, &cfg, failures) {
			return finish(nil)
		}
		failures++
		stats.Reopens++
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
