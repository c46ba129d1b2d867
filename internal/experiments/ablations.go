package experiments

import (
	"fmt"
	"strings"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/netmodel"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// AblTimeout — what if the survey prober had used a different timeout?
// Re-runs the survey with 1 s / 3 s / 10 s / 60 s matcher timeouts against
// the same population and shows how much of the latency distribution each
// captures directly (before any unmatched-response recovery). This is the
// study's premise made operational: the 3-second convention clips the
// distribution, and recovering the clipped mass is what the paper's
// matching technique is for.
func (l *Lab) AblTimeout() (Report, error) {
	blocks := l.Scale.Blocks / 2
	cycles := l.Scale.SurveyCycles
	if cycles > 16 {
		cycles = 16
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%9s %12s %14s %16s %14s\n",
		"timeout", "matched", "resp rate", "p95(addr p95)", "clip tail")
	type row struct {
		timeout time.Duration
		p9595   time.Duration
	}
	var rows []row
	for _, timeout := range []time.Duration{time.Second, 3 * time.Second, 10 * time.Second, 60 * time.Second} {
		w := NewWorld(netmodel.Config{Seed: l.Scale.Seed, Blocks: blocks})
		var mem survey.MemWriter
		st, err := survey.Run(w.Net, survey.Config{
			Vantage: survey.VantageW,
			Blocks:  w.Pop.Blocks(),
			Cycles:  cycles,
			Timeout: timeout,
			Seed:    l.Scale.Seed,
		}, &mem)
		if err != nil {
			return Report{}, fmt.Errorf("experiments: abl-timeout survey failed: %w", err)
		}
		res := core.Match(mem.Records, core.MatchOptionsForCycles(cycles))
		q := res.SurveyDetectedQuantiles()
		p95s := collectLevel(q, 95)
		p9595 := time.Duration(0)
		if len(p95s) > 0 {
			p9595 = stats.Percentile(p95s, 95)
		}
		// Fraction of per-address p99s pinned within 10% of the timeout —
		// the "clipping" signature of Figure 1.
		clipped := 0
		for _, v := range q {
			if v.P99 > timeout-timeout/10 {
				clipped++
			}
		}
		clipFrac := 0.0
		if len(q) > 0 {
			clipFrac = float64(clipped) / float64(len(q))
		}
		rows = append(rows, row{timeout, p9595})
		fmt.Fprintf(&b, "%9s %12d %13.1f%% %16s %13.1f%%\n",
			timeout, st.Matched, 100*st.ResponseRate(), fmtDur(p9595), 100*clipFrac)
	}
	gain := "n/a"
	if len(rows) == 4 && rows[1].p9595 > 0 {
		gain = fmt.Sprintf("%s -> %s", fmtDur(rows[1].p9595), fmtDur(rows[3].p9595))
	}
	return Report{
		ID:    "abl-timeout",
		Title: "Ablation: the prober's timeout clips what it can see",
		Body:  b.String(),
		Metrics: []Metric{
			{"95/95 visible at 3s vs 60s prober timeout", "clipped below 3s vs ~5s", gain},
		},
	}, nil
}

// AblScale — how the Table 2 cells depend on per-address sample count.
// The paper's surveys give each address ~1800 samples; scaled runs give
// fewer. With nearest-rank estimation a per-address p98/p99 computed from
// few samples is the *maximum* sample — upward-biased whenever the address
// got lucky enough to catch one episode, downward-censored when it did not.
// The extreme Table 2 cells therefore first grow with depth (more addresses
// catch an episode at all) and then settle as the estimator sharpens. This
// ablation quantifies that so readers can interpret the scaled numbers.
func (l *Lab) AblScale() (Report, error) {
	blocks := l.Scale.Blocks / 2
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %12s %12s %12s %12s\n", "cycles", "50/50", "95/95", "98/98", "99/99")
	var last stats.TimeoutMatrix
	cycles := []int{6, 12, 24, 48}
	for _, cyc := range cycles {
		w := NewWorld(netmodel.Config{Seed: l.Scale.Seed, Blocks: blocks})
		var mem survey.MemWriter
		if _, err := survey.Run(w.Net, survey.Config{
			Vantage: survey.VantageW,
			Blocks:  w.Pop.Blocks(),
			Cycles:  cyc,
			Seed:    l.Scale.Seed,
		}, &mem); err != nil {
			return Report{}, fmt.Errorf("experiments: abl-scale survey failed: %w", err)
		}
		res := core.Match(mem.Records, core.MatchOptionsForCycles(cyc))
		m := core.TimeoutMatrix(res.AddressQuantiles(true))
		last = m
		fmt.Fprintf(&b, "%8d %12s %12s %12s %12s\n", cyc,
			fmtDur(m.At(50, 50)), fmtDur(m.At(95, 95)), fmtDur(m.At(98, 98)), fmtDur(m.At(99, 99)))
	}
	return Report{
		ID:    "abl-scale",
		Title: "Ablation: Table 2's extreme rows depend on per-address sample depth",
		Body:  b.String(),
		Metrics: []Metric{
			{"99/99 across sample depths", "paper: 145s at ~1800 samples/addr", fmtDur(last.At(99, 99)) + " at the deepest run here"},
		},
	}, nil
}

// AblVantage — §5.2: is the high latency an artifact of one vantage point?
// Survey the same population from all four vantages and compare the key
// statistics.
func (l *Lab) AblVantage() (Report, error) {
	blocks := l.Scale.Blocks / 2
	cycles := l.Scale.SurveyCycles
	if cycles > 16 {
		cycles = 16
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %13s %12s %12s %12s\n", "vantage", "resp rate", "50/50", "95/95", ">1s addrs")
	var p9595s []time.Duration
	for _, vp := range survey.Vantages {
		w := NewWorld(netmodel.Config{Seed: l.Scale.Seed, Blocks: blocks})
		var mem survey.MemWriter
		st, err := survey.Run(w.Net, survey.Config{
			Vantage: vp,
			Blocks:  w.Pop.Blocks(),
			Cycles:  cycles,
			Seed:    l.Scale.Seed,
		}, &mem)
		if err != nil {
			return Report{}, fmt.Errorf("experiments: abl-vantage survey (vantage %c) failed: %w", vp.Name, err)
		}
		res := core.Match(mem.Records, core.MatchOptionsForCycles(cycles))
		q := res.AddressQuantiles(true)
		m := core.TimeoutMatrix(q)
		over1 := core.FracAddrsAbove(q, 50, time.Second)
		p9595s = append(p9595s, m.At(95, 95))
		fmt.Fprintf(&b, "%8c %12.1f%% %12s %12s %11.1f%%\n",
			vp.Name, 100*st.ResponseRate(), fmtDur(m.At(50, 50)), fmtDur(m.At(95, 95)), 100*over1)
	}
	min, max := p9595s[0], p9595s[0]
	for _, v := range p9595s {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return Report{
		ID:    "abl-vantage",
		Title: "Ablation: high latency is not an artifact of one vantage point (§5.2)",
		Body:  b.String(),
		Metrics: []Metric{
			{"95/95 across the four vantages", "consistent", fmt.Sprintf("%s..%s", fmtDur(min), fmtDur(max))},
		},
	}, nil
}
