package core

import (
	"fmt"
	"strings"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
)

// AddressQuantiles returns the per-address percentile vectors of the
// matched result — equal to PerAddressQuantiles over Samples. The result
// map is preallocated from the known address count and memoized per
// filtered flag: report rendering reads it several times (Table 2, headline
// fractions), and the intermediate per-address sample map Samples built on
// every call was pure garbage.
// Callers must not mutate the returned map, and must not add samples to the
// Result after the first call (the memo would go stale).
func (r *Result) AddressQuantiles(filtered bool) map[ipaddr.Addr]stats.Quantiles {
	idx := 0
	if filtered {
		idx = 1
	}
	if r.quant[idx] != nil {
		return r.quant[idx]
	}
	out := make(map[ipaddr.Addr]stats.Quantiles, len(r.Addr))
	var scratch []time.Duration
	for a, ar := range r.Addr {
		if filtered && ar.Discarded() {
			continue
		}
		if len(ar.Matched)+len(ar.Delayed) == 0 {
			continue
		}
		scratch = append(append(scratch[:0], ar.Matched...), ar.Delayed...)
		out[a] = stats.ComputeQuantiles(scratch)
	}
	r.quant[idx] = out
	return out
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
