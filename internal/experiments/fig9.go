package experiments

import (
	"fmt"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/netmodel"
	"timeouts/internal/survey"
)

// Fig9 — the survey time series 2006-2015: the minimum timeout needed for
// high percentiles grows over the years (cellular deployment), response
// rates hover near 20-35%, and a few broken vantage-point surveys show
// pathological response rates and must be excluded.
//
// Each year gets one survey against a population whose cellular prevalence
// and buffered-outage rates scale up over time; vantage points rotate
// through ISI's w/c/j/g. Two surveys reproduce the broken "j"/"g" outliers.
func (l *Lab) Fig9() (Report, error) {
	years := []int{2006, 2007, 2008, 2009, 2010, 2011, 2012, 2013, 2014, 2015}
	// Smaller per-survey workload: the series needs trend shape, not depth.
	blocks := l.Scale.Blocks / 2
	cycles := l.Scale.SurveyCycles
	if cycles > 30 {
		cycles = 30
	}
	var points []core.SurveyPoint
	for i, year := range years {
		// Cellular prevalence ramps from ~25% of its 2015 level in 2006;
		// sleepy episodes ramp harder (the 99th percentile's rise from
		// ~20 s in 2011 to ~140 s in 2013).
		frac := float64(i) / float64(len(years)-1)
		cfg := netmodel.Config{
			Seed:          l.Scale.Seed + uint64(year),
			Blocks:        blocks,
			CellularScale: 0.25 + 0.75*frac,
			SleepyScale:   0.15 + 1.0*frac,
		}
		vp := survey.Vantages[(i+2)%len(survey.Vantages)]
		drop := 0.0
		broken := false
		// 2014's "j" survey is the broken outlier of Figure 9.
		if year == 2014 && vp.Name == 'j' {
			drop, broken = 0.999, true
		}
		w := NewWorld(cfg)
		var mem survey.MemWriter
		st, err := survey.Run(w.Net, survey.Config{
			Vantage:          vp,
			Blocks:           w.Pop.Blocks(),
			Cycles:           cycles,
			Seed:             cfg.Seed,
			ResponseDropRate: drop,
		}, &mem)
		if err != nil {
			return Report{}, fmt.Errorf("experiments: fig9 survey (year %d) failed: %w", year, err)
		}
		res := core.Match(mem.Records, core.MatchOptionsForCycles(cycles))
		points = append(points, core.SurveyPoint{
			Label:        fmt.Sprintf("it%02d%c", i+50, vp.Name),
			Vantage:      vp.Name,
			Year:         year,
			Matrix:       core.TimeoutMatrix(res.AddressQuantiles(true)),
			ResponseRate: st.ResponseRate(),
			Broken:       broken || st.ResponseRate() < 0.002,
		})
	}
	body := core.FormatTimeSeries(points)

	diag := func(year int, pct float64) time.Duration {
		for _, p := range points {
			if p.Year == year && !p.Broken {
				return p.DiagonalTimeout(pct)
			}
		}
		return 0
	}
	growth := fmt.Sprintf("%s -> %s", fmtDur(diag(2007, 95)), fmtDur(diag(2015, 95)))
	growth99 := fmt.Sprintf("%s -> %s", fmtDur(diag(2011, 99)), fmtDur(diag(2015, 99)))
	var brokenRate float64
	for _, p := range points {
		if p.Broken {
			brokenRate = p.ResponseRate
		}
	}
	return Report{
		ID:    "fig9",
		Title: "Per-survey minimum timeouts 2006-2015: high latency has been increasing",
		Body:  body,
		Metrics: []Metric{
			{"95/95 timeout growth 2007 -> 2015", "~2s -> ~5s", growth},
			{"99/99 timeout growth 2011 -> 2015", "20s -> 140s", growth99},
			{"normal survey response rate", "~20%", fmtPct(points[len(points)-1].ResponseRate)},
			{"broken vantage survey response rate", "0.02-0.2%", fmt.Sprintf("%.3f%%", 100*brokenRate)},
		},
	}, nil
}
