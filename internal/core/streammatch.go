package core

import (
	"io"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// StreamMatcher is the bounded-memory counterpart of Match: it consumes a
// survey record stream incrementally and drives the attribution kernel
// (OpenProbes and its filters) record by record, keeping only per-address
// *open* state — the last two probes (the only ones a future unmatched
// response can still be attributed to), the broadcast-filter EWMA, and a
// hybrid exact/P² quantile sketch (stats.StreamingQuantiles) over the
// address's latency samples — in per-/24 Blocks. Closed probe state is
// evicted as the stream advances, so memory is O(addresses), independent of
// the record count — the property that lets the paper's §3.3–§4.1 pipeline
// run over ISI-scale datasets (9.64 billion responses) that Match cannot
// hold.
//
// StreamMatcher implements survey.RecordWriter, so a survey can probe
// straight into the analyzer — survey.Run / survey.RunSharded with the
// matcher as the output sink — with no intermediate dataset at all.
//
// Equivalence with Match: StreamMatcher assumes records arrive in dataset
// emission order (the order Run/RunSharded produce: per address, probe
// records in send order, and every unmatched response after the record of
// the newest probe sent before it — guaranteed whenever the probing
// interval exceeds the matcher timeout plus two sweeps, as in every ISI
// configuration). Under that ordering it reproduces Match's per-address
// results exactly, and at simulation scale — per-address streams no longer
// than the exact-buffer cap of stats.StreamingQuantiles — its tables are
// byte-identical to the in-memory pipeline's. Beyond the cap the quantiles
// graduate to P² estimates and the results become approximations whose
// error abl-streaming and TestP2AgainstExact quantify.
type StreamMatcher struct {
	opt     Options
	cells   Blocks[streamCell]
	records uint64

	// Observability (nil-safe no-ops unless SetObserver installs them). All
	// matcher metrics are deterministic-class: the matcher consumes the
	// merged record stream in dataset emission order, which is identical
	// whether the survey producing it ran sequentially or sharded.
	obsRecords    *obs.Counter
	obsSpills     *obs.Counter
	obsAddrsHWM   *obs.Gauge
	obsOpenHWM    *obs.Gauge
	obsRTTMatched *obs.Histogram
	obsLatency    *obs.Histogram
	openProbes    int64 // open probes across all addresses, for the HWM gauge
}

// streamCell is one address's streaming state — O(1) regardless of how
// many records the address contributes.
type streamCell struct {
	st               addrState
	est              stats.StreamingQuantiles // matched + delayed latency samples
	matched, delayed uint64
}

// NewStreamMatcher creates a streaming matcher; zero Options select the
// paper's settings, as with Match.
func NewStreamMatcher(opt Options) *StreamMatcher {
	return &StreamMatcher{opt: opt.withDefaults()}
}

// SetObserver registers the matcher's metrics on reg: records consumed, the
// open-state high-water marks (addresses with live state, probes awaiting
// eviction — the quantities that bound the pipeline's memory), quantile
// sketches that spilled from exact buffering to P² estimation, and two
// latency histograms — matched RTTs only (match.rtt_matched, comparable
// bucket-for-bucket to the probe-side survey.rtt_matched) and all samples
// fed to the quantile sketches (match.latency, matched plus recovered).
func (m *StreamMatcher) SetObserver(reg *obs.Registry) {
	m.obsRecords = reg.Counter("match.records")
	m.obsSpills = reg.Counter("match.quantile_spills")
	m.obsAddrsHWM = reg.Gauge("match.addrs_hwm")
	m.obsOpenHWM = reg.Gauge("match.open_probes_hwm")
	m.obsRTTMatched = reg.Histogram("match.rtt_matched")
	m.obsLatency = reg.Histogram("match.latency")
}

// Records returns how many records have been consumed.
func (m *StreamMatcher) Records() uint64 { return m.records }

// Addresses returns how many addresses currently hold open state.
func (m *StreamMatcher) Addresses() int { return m.cells.Len() }

// Write implements survey.RecordWriter, folding one record into the match
// state; it never returns an error.
func (m *StreamMatcher) Write(rec survey.Record) error {
	m.Observe(rec)
	return nil
}

// cell returns (creating if needed) the address's state.
func (m *StreamMatcher) cell(a ipaddr.Addr) *streamCell {
	c, created := m.cells.Get(a)
	if created {
		c.st = newAddrState(&m.opt)
		m.obsAddrsHWM.Observe(int64(m.cells.Len()))
	}
	return c
}

// probe opens a probe on c, maintaining the open-probe high-water mark
// (opening may evict, so the net change can be zero).
func (m *StreamMatcher) probe(c *streamCell, send time.Duration, matched bool) {
	before := c.st.ring.Len()
	c.st.probe(send, matched)
	m.openProbes += int64(c.st.ring.Len() - before)
	m.obsOpenHWM.Observe(m.openProbes)
}

// Observe folds one record into the match state.
func (m *StreamMatcher) Observe(rec survey.Record) {
	m.records++
	m.obsRecords.Inc()
	switch rec.Type {
	case survey.RecMatched:
		c := m.cell(rec.Addr)
		m.probe(c, rec.When, true)
		c.matched++
		c.est.Add(rec.RTT)
		m.obsRTTMatched.Observe(rec.RTT)
		m.obsLatency.Observe(rec.RTT)
	case survey.RecTimeout:
		m.probe(m.cell(rec.Addr), rec.When, false)
	case survey.RecUnmatched:
		c := m.cell(rec.Addr)
		if lat, fresh := c.st.response(rec.When, responseCount(rec), &m.opt); fresh {
			c.delayed++
			c.est.Add(lat)
			m.obsLatency.Observe(lat)
		}
	case survey.RecError:
		m.cell(rec.Addr).st.v.ErrorSeen = true
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

// StreamAddressResult is the per-address outcome of streaming matching: the
// same Verdict AddressResult carries, with the raw sample slices replaced by
// counts and a bounded quantile sketch.
type StreamAddressResult struct {
	Verdict
	// Matched and Delayed count the survey-detected and recovered samples.
	Matched, Delayed uint64

	est stats.StreamingQuantiles
}

// Quantiles returns the address's latency percentile vector: exact for
// streams within the buffer cap, P² estimates beyond.
func (a *StreamAddressResult) Quantiles() stats.Quantiles { return a.est.Quantiles() }

// StreamResult is the outcome of the streaming pipeline over one dataset.
type StreamResult struct {
	Opt     Options
	Addr    map[ipaddr.Addr]*StreamAddressResult
	Records uint64
}

// Finalize seals all remaining open state and returns the result. The
// matcher's per-address state is consumed; further Observe calls start a
// fresh accumulation.
func (m *StreamMatcher) Finalize() *StreamResult {
	res := &StreamResult{Opt: m.opt, Addr: make(map[ipaddr.Addr]*StreamAddressResult, m.cells.Len()), Records: m.records}
	m.cells.Range(func(a ipaddr.Addr, c *streamCell) {
		if c.est.Spilled() {
			m.obsSpills.Inc()
		}
		res.Addr[a] = &StreamAddressResult{Verdict: c.st.finish(&m.opt), Matched: c.matched, Delayed: c.delayed, est: c.est}
	})
	m.cells = Blocks[streamCell]{}
	m.records, m.openProbes = 0, 0
	return res
}

// AddressQuantiles returns the per-address percentile vectors. With
// filtered=true, broadcast, duplicate and error-tainted addresses are
// discarded — the view the rest of the analysis runs on; with
// filtered=false it is the paper's naive matching.
func (r *StreamResult) AddressQuantiles(filtered bool) map[ipaddr.Addr]stats.Quantiles {
	out := make(map[ipaddr.Addr]stats.Quantiles, len(r.Addr))
	for a, ar := range r.Addr {
		if filtered && ar.Discarded() {
			continue
		}
		if ar.Matched+ar.Delayed == 0 {
			continue
		}
		out[a] = ar.est.Quantiles()
	}
	return out
}
