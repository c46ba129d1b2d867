package core

import (
	"fmt"
	"strings"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
)

// AddrQuantiles is one address's percentile vector.
type AddrQuantiles struct {
	Addr ipaddr.Addr
	stats.Quantiles
}

// sampleView selects which of an address's samples its quantiles reduce.
type sampleView int

const (
	viewNaive          sampleView = iota // matched + delayed, every address
	viewFiltered                         // matched + delayed, discarded addresses skipped
	viewSurveyDetected                   // matched only, every address
	numViews
)

// AddressQuantiles returns the per-address percentile vectors over each
// address's survey-detected plus delayed samples, in ascending address
// order; addresses without samples are skipped. With filtered=false it is
// the paper's "naive matching" view; with filtered=true broadcast,
// duplicate and error-tainted addresses are skipped too — the "Survey +
// Delayed" row of Table 1 the rest of the analysis runs on. This is the
// paper's treat-each-address-equally aggregation (§3.2): reliable, chatty
// hosts must not drown out hosts that answer rarely.
//
// The slice is built once per view and shared (report rendering reads it
// several times); callers must not modify it.
func (r *Result) AddressQuantiles(filtered bool) []AddrQuantiles {
	if filtered {
		return r.quantiles(viewFiltered)
	}
	return r.quantiles(viewNaive)
}

// SurveyDetectedQuantiles is AddressQuantiles over the matched samples
// alone, every address included — the view Figure 1 is computed from.
func (r *Result) SurveyDetectedQuantiles() []AddrQuantiles {
	return r.quantiles(viewSurveyDetected)
}

// samples returns how many of ar's samples view v reduces; 0 when the view
// skips the address.
func (v sampleView) samples(ar *AddressResult) int {
	switch {
	case v == viewFiltered && ar.Discarded():
		return 0
	case v == viewSurveyDetected:
		return len(ar.Matched)
	}
	return len(ar.Matched) + len(ar.Delayed)
}

// quantiles builds (once) view v's percentile vectors. Only responders have
// samples, so it counts the responders the view keeps, allocates the vector
// at that size, then fills it from the responders in address order. Each
// address's samples are copied into a scratch slice before ComputeQuantiles
// sorts them, so Matched and Delayed keep their arrival order.
func (r *Result) quantiles(v sampleView) []AddrQuantiles {
	m := &r.quant[v]
	m.once.Do(func() {
		n := 0
		for i := range r.resp.n {
			if v.samples(&r.resp.at(uint32(i)).res) > 0 {
				n++
			}
		}
		m.q = make([]AddrQuantiles, 0, n)
		var scratch []time.Duration
		r.cells.Range(func(a ipaddr.Addr, c *matchCell) {
			p := c.responder(&r.resp)
			if p == nil || v.samples(&p.res) == 0 {
				return
			}
			ar := &p.res
			scratch = append(scratch[:0], ar.Matched...)
			if v != viewSurveyDetected {
				scratch = append(scratch, ar.Delayed...)
			}
			m.q = append(m.q, AddrQuantiles{a, stats.ComputeQuantiles(scratch)})
		})
	})
	return m.q
}

// RenderReport renders the full analysis report — Table 1, the Table 2
// minimum-timeout matrix, the paper's headline numbers, and the filter
// accounting. With naive=true the matrix is computed over unfiltered samples
// and the filter accounting is omitted.
func RenderReport(r *Result, naive bool) string {
	var b strings.Builder

	t1 := r.BuildTable1()
	fmt.Fprintf(&b, "\nTable 1 — matching and filtering:\n%s", t1.Format())

	q := r.AddressQuantiles(!naive)
	matrix := TimeoutMatrix(q)
	mode := "filtered"
	if naive {
		mode = "naive"
	}
	fmt.Fprintf(&b, "\nTable 2 — minimum timeout matrix (%s, %d addresses):\n%s",
		mode, len(q), matrix.FormatSeconds())

	fmt.Fprintf(&b, "\nheadline: %.1f%% of addresses see >5%% of pings exceed 5s; 98/98 needs %s; 99/99 needs %s\n",
		100*FracAddrsAbove(q, 95, 5*time.Second),
		matrix.At(98, 98).Round(time.Second), matrix.At(99, 99).Round(time.Second))

	if !naive {
		bc := r.BroadcastResponders()
		dup := r.DuplicateResponders()
		fmt.Fprintf(&b, "filtered: %d broadcast responders, %d duplicate responders\n", len(bc), len(dup))
	}
	return b.String()
}
