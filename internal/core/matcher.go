// Package core implements the paper's analysis pipeline — its primary
// contribution. Given an ISI-style survey dataset it:
//
//   - recovers "delayed responses" by matching unmatched response records to
//     the most recent timed-out request for the same source address (§3.3),
//   - filters the two classes of *unexpected* responses that would corrupt
//     the latency analysis: broadcast responders (detected with the paper's
//     EWMA persistence filter, §3.3.1) and duplicate/DoS responders (more
//     than four responses to a single request, §3.3.2),
//   - aggregates latencies per address into percentile vectors and derives
//     the minimum-timeout matrix of Table 2 (§4),
//   - and implements the attribution analyses of §5–6: survey time series,
//     satellite isolation, turtle AS/continent rankings, first-ping
//     classification, and >100 s latency-pattern classification.
package core

import (
	"io"
	"sync"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
	"timeouts/internal/survey"
)

// Options parameterizes the matching and filtering pipeline. Zero values
// select the paper's settings.
type Options struct {
	// Interval is the survey's probing round length (11 minutes at ISI);
	// the broadcast filter reasons in rounds.
	Interval time.Duration
	// BroadcastAlpha is the EWMA smoothing factor (paper: 0.01).
	BroadcastAlpha float64
	// BroadcastMark is the EWMA-maximum threshold above which an address
	// is declared a broadcast responder (paper: 0.2).
	BroadcastMark float64
	// BroadcastMinLat: only unmatched responses at least this late engage
	// the broadcast filter (paper: 10 s).
	BroadcastMinLat time.Duration
	// BroadcastTol is how close two consecutive rounds' inferred latencies
	// must be to count as "similar" (the paper's broadcast responses are
	// stable at fractions of the probing interval; 2 s covers the
	// one-second record precision plus jitter).
	BroadcastTol time.Duration
	// DuplicateMax is the maximum number of responses to a single request
	// an address may exhibit before all its responses are discarded
	// (paper: 4).
	DuplicateMax int
}

func (o Options) withDefaults() Options {
	if o.Interval == 0 {
		o.Interval = 11 * time.Minute
	}
	if o.BroadcastAlpha == 0 {
		o.BroadcastAlpha = 0.01
	}
	if o.BroadcastMark == 0 {
		o.BroadcastMark = 0.2
	}
	if o.BroadcastMinLat == 0 {
		o.BroadcastMinLat = 10 * time.Second
	}
	if o.BroadcastTol == 0 {
		o.BroadcastTol = 2 * time.Second
	}
	if o.DuplicateMax == 0 {
		o.DuplicateMax = 4
	}
	return o
}

// MatchOptionsForCycles returns the paper's options adjusted for a survey
// of the given number of rounds. The paper's EWMA threshold of 0.2 with
// alpha 0.01 requires a broadcast responder to repeat for ~23 consecutive
// rounds; ISI surveys run ~1800 rounds, but scaled-down surveys may not, so
// the mark threshold is lowered proportionally (capped at the paper's 0.2).
func MatchOptionsForCycles(cycles int) Options {
	o := Options{}.withDefaults()
	if cycles <= 3 {
		return o
	}
	// A persistent responder observed for (cycles-3) rounds reaches an
	// EWMA of 1-(1-alpha)^(cycles-3); mark at 60% of that, capped at 0.2.
	reachable := 1 - pow1m(o.BroadcastAlpha, cycles-3)
	mark := 0.6 * reachable
	if mark > o.BroadcastMark {
		mark = o.BroadcastMark
	}
	o.BroadcastMark = mark
	return o
}

// pow1m computes (1-alpha)^n.
func pow1m(alpha float64, n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 1 - alpha
	}
	return v
}

// AddressResult is the per-address outcome of matching: the exact latency
// samples and the address's Verdict.
type AddressResult struct {
	// Matched holds the survey-detected RTTs (microsecond precision).
	Matched []time.Duration
	// Delayed holds latencies recovered from unmatched responses (second
	// precision).
	Delayed []time.Duration
	Verdict
}

// Result is the outcome of matching one dataset. It owns the matcher's
// per-address cells and responder states: Range, Lookup and Len read them,
// and AddressQuantiles reduces them to percentile vectors; no per-address
// map is built.
type Result struct {
	Opt Options
	// OutOfOrder counts the addresses whose records broke emission order;
	// their results are not to be trusted.
	OutOfOrder int

	cells Blocks[matchCell]
	resp  chunks[responder]
	// quant memoizes each sampleView's quantiles; see AddressQuantiles.
	quant [numViews]struct {
		once sync.Once
		q    []AddrQuantiles
	}
}

// Range calls fn on every address's result in ascending address order. A
// responder's result (an address with any matched or unmatched record) is
// the one Lookup returns, valid for the Result's life. A quiet address's
// result (timeouts and errors only) is built from its cell for the call and
// is valid only until fn returns.
func (r *Result) Range(fn func(a ipaddr.Addr, ar *AddressResult)) {
	var quiet AddressResult
	r.cells.Range(func(a ipaddr.Addr, c *matchCell) {
		if p := c.responder(&r.resp); p != nil {
			fn(a, &p.res)
			return
		}
		quiet = r.quiet(c)
		fn(a, &quiet)
	})
}

// Lookup returns a's result, or nil if no record named a. A responder's
// result stays valid for the Result's life; a quiet address's is a copy
// built from its cell.
func (r *Result) Lookup(a ipaddr.Addr) *AddressResult {
	c := r.cells.Lookup(a)
	if c == nil {
		return nil
	}
	if p := c.responder(&r.resp); p != nil {
		return &p.res
	}
	ar := r.quiet(c)
	return &ar
}

// quiet returns the result of an address without responder state: no
// samples, and the verdict its cell finishes to.
func (r *Result) quiet(c *matchCell) AddressResult {
	var p responder
	p.finish(c, &r.Opt)
	return p.res
}

// Len returns how many addresses the records named.
func (r *Result) Len() int { return r.cells.Len() }

// StreamMatcher runs the paper's §3.3–§4.1 pipeline over a survey record
// stream, one record at a time: it drives the attribution kernel
// (OpenProbes and its filters). Every address a record names keeps a
// 56-byte cell in a Blocks: its open probes, probe count and flags. An
// address that answers — its first matched or unmatched record — also
// gains a 136-byte responder state, in fixed chunks like the cells', which
// holds its filter state, duplicate tallies and every matched and delayed
// latency sample (8 B each). A survey probes whole /24s and most addresses
// never answer, so memory is 56 B per address, plus the responder state
// and samples of those that answer; records are never held.
//
// StreamMatcher implements survey.RecordWriter, so a survey can probe
// straight into the matcher — survey.Run / survey.RunSharded with the
// matcher as the output sink — with no intermediate dataset at all.
//
// Records must arrive in dataset emission order, the order Run and
// RunSharded write: per address, probe records in send order, and each
// unmatched response after the records of the probes sent before it. In
// that order the two open probes are the only ones a response can still be
// credited to (DESIGN.md §9). The matcher checks the contract per address
// and flags an address that breaks it (Verdict.OutOfOrder): a probe sent
// no later than its newest open probe or before its newest unmatched
// arrival, or an unmatched response arriving before its newest unmatched
// arrival or no later than the older of two open probes.
type StreamMatcher struct {
	opt     Options
	cells   Blocks[matchCell]
	resp    chunks[responder]
	records uint64

	// Observability (nil-safe no-ops unless SetObserver installs them). All
	// matcher metrics are deterministic-class: the matcher consumes the
	// merged record stream in dataset emission order, which is identical
	// whether the survey producing it ran sequentially or sharded.
	obsRecords    *obs.Counter
	obsAddrsHWM   *obs.Gauge
	obsOpenHWM    *obs.Gauge
	obsRTTMatched *obs.Histogram
	obsLatency    *obs.Histogram
	openProbes    int64 // open probes across all addresses, for the HWM gauge
}

// NewStreamMatcher creates a matcher; zero Options select the paper's
// settings.
func NewStreamMatcher(opt Options) *StreamMatcher {
	return &StreamMatcher{opt: opt.withDefaults()}
}

// SetObserver registers the matcher's metrics on reg: records consumed, the
// open-state high-water marks (addresses with live state, probes awaiting
// eviction), and two latency histograms — matched RTTs only
// (match.rtt_matched, comparable bucket-for-bucket to the probe-side
// survey.rtt_matched) and every sample kept (match.latency, matched plus
// recovered).
func (m *StreamMatcher) SetObserver(reg *obs.Registry) {
	m.obsRecords = reg.Counter("match.records")
	m.obsAddrsHWM = reg.Gauge("match.addrs_hwm")
	m.obsOpenHWM = reg.Gauge("match.open_probes_hwm")
	m.obsRTTMatched = reg.Histogram("match.rtt_matched")
	m.obsLatency = reg.Histogram("match.latency")
}

// Records returns how many records have been consumed.
func (m *StreamMatcher) Records() uint64 { return m.records }

// Write implements survey.RecordWriter, folding one record into the match
// state; it never returns an error.
func (m *StreamMatcher) Write(rec survey.Record) error {
	m.Observe(rec)
	return nil
}

// cell returns (creating if needed) the address's cell.
func (m *StreamMatcher) cell(a ipaddr.Addr) *matchCell {
	c, created := m.cells.Get(a)
	if created {
		m.obsAddrsHWM.Observe(int64(m.cells.Len()))
	}
	return c
}

// answered returns c's responder state, creating it on the address's first
// answer.
func (m *StreamMatcher) answered(c *matchCell) *responder {
	if p := c.responder(&m.resp); p != nil {
		return p
	}
	c.resp = m.resp.add() + 1
	p := c.responder(&m.resp)
	*p = newResponder(&m.opt)
	return p
}

// probe opens a probe on c, maintaining the open-probe high-water mark
// (opening may evict, so the net change can be zero).
func (m *StreamMatcher) probe(c *matchCell, p *responder, send time.Duration, matched bool) {
	before := c.ring.Len()
	c.probe(p, send, matched)
	m.openProbes += int64(c.ring.Len() - before)
	m.obsOpenHWM.Observe(m.openProbes)
}

// Observe folds one record into the match state.
func (m *StreamMatcher) Observe(rec survey.Record) {
	m.records++
	m.obsRecords.Inc()
	switch rec.Type {
	case survey.RecMatched:
		c := m.cell(rec.Addr)
		p := m.answered(c)
		m.probe(c, p, rec.When, true)
		p.res.Matched = append(p.res.Matched, rec.RTT)
		m.obsRTTMatched.Observe(rec.RTT)
		m.obsLatency.Observe(rec.RTT)
	case survey.RecTimeout:
		c := m.cell(rec.Addr)
		m.probe(c, c.responder(&m.resp), rec.When, false)
	case survey.RecUnmatched:
		c := m.cell(rec.Addr)
		p := m.answered(c)
		if lat, fresh := c.response(p, rec.When, responseCount(rec), &m.opt); fresh {
			p.res.Delayed = append(p.res.Delayed, lat)
			m.obsLatency.Observe(lat)
		}
	case survey.RecError:
		m.cell(rec.Addr).errorSeen = true
	}
}

// Consume drains a RecordSource into the matcher, stopping at io.EOF or the
// first error.
func (m *StreamMatcher) Consume(src survey.RecordSource) error {
	for {
		rec, err := src.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		m.Observe(rec)
	}
}

// Finalize seals all remaining open state, completes each responder's
// Verdict and returns the result. The matcher's cells and responder states
// move into the result; further Observe calls start a fresh accumulation.
func (m *StreamMatcher) Finalize() *Result {
	res := &Result{Opt: m.opt, cells: m.cells, resp: m.resp}
	res.cells.Range(func(_ ipaddr.Addr, c *matchCell) {
		if p := c.responder(&res.resp); p != nil {
			p.finish(c, &m.opt)
		}
		if c.outOfOrder {
			res.OutOfOrder++
		}
	})
	m.cells, m.resp = Blocks[matchCell]{}, chunks[responder]{}
	m.records, m.openProbes = 0, 0
	return res
}

// Match runs the matcher over a dataset's records, which must be in
// emission order (see StreamMatcher).
func Match(records []survey.Record, opt Options) *Result {
	m := NewStreamMatcher(opt)
	for _, rec := range records {
		m.Observe(rec)
	}
	return m.Finalize()
}
