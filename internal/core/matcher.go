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
	"cmp"
	"runtime"
	"slices"
	"sync"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
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

// Result is the outcome of the matching pipeline over one dataset.
type Result struct {
	Opt  Options
	Addr map[ipaddr.Addr]*AddressResult

	// quant memoizes AddressQuantiles per filtered flag ([0] naive,
	// [1] filtered); see that method for the staleness contract.
	quant [2]map[ipaddr.Addr]stats.Quantiles
}

// matchCell gathers one address's records for Match, then holds its result.
type matchCell struct {
	probes    []probeRec
	unmatched []umRec
	res       AddressResult
}

type probeRec struct {
	send    time.Duration
	rtt     time.Duration
	matched bool
}

type umRec struct {
	at    time.Duration
	count int
}

// Match runs the paper's §3.3–§4.1 pipeline over a dataset's records. The
// records may be in any order; they are grouped per address and sorted by
// time before matching.
func Match(records []survey.Record, opt Options) *Result {
	opt = opt.withDefaults()
	var cells Blocks[matchCell]
	for _, rec := range records {
		switch rec.Type {
		case survey.RecMatched:
			c, _ := cells.Get(rec.Addr)
			c.probes = append(c.probes, probeRec{send: rec.When, rtt: rec.RTT, matched: true})
		case survey.RecTimeout:
			c, _ := cells.Get(rec.Addr)
			c.probes = append(c.probes, probeRec{send: rec.When})
		case survey.RecUnmatched:
			c, _ := cells.Get(rec.Addr)
			c.unmatched = append(c.unmatched, umRec{at: rec.When, count: responseCount(rec)})
		case survey.RecError:
			c, _ := cells.Get(rec.Addr)
			c.res.ErrorSeen = true
		}
	}

	res := &Result{Opt: opt, Addr: make(map[ipaddr.Addr]*AddressResult, cells.Len())}
	jobs := make([]*matchCell, 0, cells.Len())
	cells.Range(func(a ipaddr.Addr, c *matchCell) {
		jobs = append(jobs, c)
		res.Addr[a] = &c.res
	})
	// The per-address pass is embarrassingly parallel: every address's
	// matching, filtering and accounting touches only its own cell.
	workers := max(min(runtime.GOMAXPROCS(0), len(jobs)), 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(jobs); i += workers {
				matchAddress(jobs[i], &opt)
			}
		}()
	}
	wg.Wait()
	return res
}

// matchAddress runs the §3.3–§4.1 per-address pass: it sorts the address's
// records and drives the attribution kernel in time order, so every probe
// sent strictly before a response is open when the response arrives.
func matchAddress(c *matchCell, opt *Options) {
	slices.SortFunc(c.probes, func(a, b probeRec) int { return cmp.Compare(a.send, b.send) })
	slices.SortFunc(c.unmatched, func(a, b umRec) int { return cmp.Compare(a.at, b.at) })
	r := &c.res
	st := newAddrState(opt)
	st.v.ErrorSeen = r.ErrorSeen
	open := func(p probeRec) {
		st.probe(p.send, p.matched)
		if p.matched {
			r.Matched = append(r.Matched, p.rtt)
		}
	}
	pi := 0
	for _, um := range c.unmatched {
		for ; pi < len(c.probes) && c.probes[pi].send < um.at; pi++ {
			open(c.probes[pi])
		}
		if lat, fresh := st.response(um.at, um.count, opt); fresh {
			r.Delayed = append(r.Delayed, lat)
		}
	}
	for _, p := range c.probes[pi:] {
		open(p)
	}
	r.Verdict = st.finish(opt)
	c.probes, c.unmatched = nil, nil
}

// Samples returns the per-address latency sample sets. With filtered=false
// it reproduces the paper's "naive matching": every address, survey-detected
// plus delayed samples. With filtered=true, broadcast, duplicate and
// error-tainted addresses are discarded — the "Survey + Delayed" row of
// Table 1 the rest of the analysis runs on.
func (r *Result) Samples(filtered bool) map[ipaddr.Addr][]time.Duration {
	out := make(map[ipaddr.Addr][]time.Duration, len(r.Addr))
	for a, ar := range r.Addr {
		if filtered && ar.Discarded() {
			continue
		}
		if len(ar.Matched)+len(ar.Delayed) == 0 {
			continue
		}
		s := make([]time.Duration, 0, len(ar.Matched)+len(ar.Delayed))
		s = append(s, ar.Matched...)
		s = append(s, ar.Delayed...)
		out[a] = s
	}
	return out
}

// SurveyDetected returns only the survey-detected (matched) samples per
// address, the view Figure 1 is computed from.
func (r *Result) SurveyDetected() map[ipaddr.Addr][]time.Duration {
	out := make(map[ipaddr.Addr][]time.Duration, len(r.Addr))
	for a, ar := range r.Addr {
		if len(ar.Matched) == 0 {
			continue
		}
		out[a] = append([]time.Duration(nil), ar.Matched...)
	}
	return out
}
