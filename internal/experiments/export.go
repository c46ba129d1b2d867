package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/stats"
)

// ExportData writes the plottable series behind the paper's figures as CSV
// files into dir (created if needed), so the figures themselves can be
// regenerated with any plotting tool:
//
//	fig1_cdf.csv        percentile,latency_s,frac     (survey-detected view)
//	fig6_naive_cdf.csv  percentile,latency_s,frac     (before filtering)
//	fig6_filtered_cdf.csv                              (after filtering)
//	fig2_octets.csv     octet,count                   (Zmap broadcast dsts)
//	fig3_octets.csv     octet,count                   (unmatched responses)
//	fig5_ccdf.csv       responses,frac_above
//	fig7_cdf.csv        scan,rtt_s,frac
//	fig11_scatter.csv   p1_s,p99_s,satellite,asn
//	fig12_delta.csv     delta_s,frac                  (RTT1-RTT2 CDF)
//	fig12_prob.csv      delta_s,p_overestimate,n
//	fig13_wake.csv      wake_s,frac
//	fig14_share.csv     share,frac
//	tab2_matrix.csv     addr_pct,ping_pct,timeout_s
func (l *Lab) ExportData(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: creating data dir: %w", err)
	}
	w := &csvDir{dir: dir}

	// fig1 / fig6: percentile CDFs.
	m, err := l.Match()
	if err != nil {
		return err
	}
	w.percentileCDF("fig1_cdf.csv", core.PerAddressQuantiles(m.SurveyDetected()))
	w.percentileCDF("fig6_naive_cdf.csv", core.PerAddressQuantiles(m.Samples(false)))
	w.percentileCDF("fig6_filtered_cdf.csv", core.PerAddressQuantiles(m.Samples(true)))

	// fig2: Zmap broadcast destination octets.
	oneScan, err := l.Scans(1)
	if err != nil {
		return err
	}
	bf := oneScan[0].Broadcast
	w.write("fig2_octets.csv", []string{"octet", "count"}, func(emit func(...string)) {
		for o := 0; o < 256; o++ {
			emit(strconv.Itoa(o), strconv.Itoa(bf.ProbedBroadcast[o]))
		}
	})

	// fig3: unmatched responses by preceding probe octet.
	recs, _, err := l.Survey()
	if err != nil {
		return err
	}
	hist := core.UnmatchedLastOctets(recs)
	w.write("fig3_octets.csv", []string{"octet", "count"}, func(emit func(...string)) {
		for o := 0; o < 256; o++ {
			emit(strconv.Itoa(o), strconv.FormatUint(hist[o], 10))
		}
	})

	// fig5: duplicate CCDF.
	w.write("fig5_ccdf.csv", []string{"responses", "frac_above"}, func(emit func(...string)) {
		for _, p := range m.DuplicateCCDF() {
			emit(fmt.Sprintf("%.0f", p.Value), fmt.Sprintf("%.8g", p.Frac))
		}
	})

	// fig7: per-scan RTT CDFs (thinned).
	allScans, err := l.Scans(l.Scale.ZmapScans)
	if err != nil {
		return err
	}
	for i, sc := range allScans {
		i := i
		pts := stats.CDF(sc.RTTPercentiles(), 400)
		w.append("fig7_cdf.csv", []string{"scan", "rtt_s", "frac"}, func(emit func(...string)) {
			for _, p := range pts {
				emit(strconv.Itoa(i+1), fmtSec(p.Value), fmt.Sprintf("%.6f", p.Frac))
			}
		})
	}

	// fig11: satellite scatter.
	q, err := l.Quantiles()
	if err != nil {
		return err
	}
	pts := core.SatelliteScatter(q, l.DB(), 300*time.Millisecond)
	w.write("fig11_scatter.csv", []string{"p1_s", "p99_s", "satellite", "asn"}, func(emit func(...string)) {
		for _, p := range pts {
			emit(fmtSec(p.P1), fmtSec(p.P99), strconv.FormatBool(p.Satellite), strconv.FormatUint(uint64(p.AS.ASN), 10))
		}
	})

	// fig12/13/14: first-ping analyses.
	trains, _, err := l.firstPingTrains()
	if err != nil {
		return err
	}
	fa := core.AnalyzeFirstPing(trains)
	deltas := append([]time.Duration(nil), fa.Delta12...)
	w.durationCDF("fig12_delta.csv", "delta_s", deltas)
	w.write("fig12_prob.csv", []string{"delta_s", "p_overestimate", "n"}, func(emit func(...string)) {
		for _, pt := range fa.DropProbability(100*time.Millisecond, -time.Second, 1500*time.Millisecond) {
			emit(fmtSec(pt.Delta), fmt.Sprintf("%.4f", pt.P), strconv.Itoa(pt.N))
		}
	})
	wakes := append([]time.Duration(nil), fa.WakeEstimates...)
	w.durationCDF("fig13_wake.csv", "wake_s", wakes)
	var shares []float64
	for _, p := range fa.PrefixShare {
		if p.Classified > 0 {
			shares = append(shares, p.Share())
		}
	}
	sort.Float64s(shares)
	w.write("fig14_share.csv", []string{"share", "frac"}, func(emit func(...string)) {
		for i, s := range shares {
			emit(fmt.Sprintf("%.4f", s), fmt.Sprintf("%.6f", float64(i+1)/float64(len(shares))))
		}
	})

	// tab2: the timeout matrix.
	matrix := core.TimeoutMatrix(q)
	w.write("tab2_matrix.csv", []string{"addr_pct", "ping_pct", "timeout_s"}, func(emit func(...string)) {
		for r, rp := range matrix.Levels {
			for c, cp := range matrix.Levels {
				emit(fmt.Sprintf("%g", rp), fmt.Sprintf("%g", cp), fmtSec(matrix.Cell[r][c]))
			}
		}
	})

	return w.err
}

// fmtSec renders a duration as seconds with microsecond resolution.
func fmtSec(d time.Duration) string { return strconv.FormatFloat(d.Seconds(), 'f', 6, 64) }

// csvDir writes CSV files into a directory, latching the first error.
type csvDir struct {
	dir string
	err error
}

func (c *csvDir) open(name string, headers []string, appendMode bool) (*csv.Writer, *os.File) {
	if c.err != nil {
		return nil, nil
	}
	path := filepath.Join(c.dir, name)
	flags := os.O_CREATE | os.O_WRONLY
	writeHeader := true
	if appendMode {
		if st, err := os.Stat(path); err == nil && st.Size() > 0 {
			writeHeader = false
		}
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		c.err = err
		return nil, nil
	}
	cw := csv.NewWriter(f)
	if writeHeader {
		if err := cw.Write(headers); err != nil {
			c.err = err
		}
	}
	return cw, f
}

func (c *csvDir) run(name string, headers []string, appendMode bool, body func(emit func(...string))) {
	cw, f := c.open(name, headers, appendMode)
	if cw == nil {
		return
	}
	body(func(fields ...string) {
		if c.err == nil {
			c.err = cw.Write(fields)
		}
	})
	cw.Flush()
	if err := cw.Error(); err != nil && c.err == nil {
		c.err = err
	}
	if err := f.Close(); err != nil && c.err == nil {
		c.err = err
	}
}

func (c *csvDir) write(name string, headers []string, body func(emit func(...string))) {
	c.run(name, headers, false, body)
}

func (c *csvDir) append(name string, headers []string, body func(emit func(...string))) {
	c.run(name, headers, true, body)
}

// percentileCDF writes the Figures 1/6 percentile curves.
func (c *csvDir) percentileCDF(name string, q map[ipaddr.Addr]stats.Quantiles) {
	cdfs := core.PercentileCDF(q, 400)
	c.write(name, []string{"percentile", "latency_s", "frac"}, func(emit func(...string)) {
		for _, level := range stats.StandardPercentiles {
			for _, p := range cdfs[level] {
				emit(fmt.Sprintf("%g", level), fmtSec(p.Value), fmt.Sprintf("%.6f", p.Frac))
			}
		}
	})
}

// durationCDF writes a simple one-series CDF.
func (c *csvDir) durationCDF(name, col string, samples []time.Duration) {
	pts := stats.CDF(samples, 400)
	c.write(name, []string{col, "frac"}, func(emit func(...string)) {
		for _, p := range pts {
			emit(fmtSec(p.Value), fmt.Sprintf("%.6f", p.Frac))
		}
	})
}
