package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/survey"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRecords hand-builds a small dataset covering every record class the
// report accounts for: clean matches, delayed responses (one past the 145s
// reporting threshold), a persistent broadcast-style responder, a duplicate
// responder, and an error-tainted address. Six 11-minute rounds, emission
// order (per round: probe records, then that round's unmatched arrivals).
func goldenRecords() []survey.Record {
	const interval = 11 * time.Minute
	var (
		a = ipaddr.MustParse("10.0.0.1") // clean: matched every round
		b = ipaddr.MustParse("10.0.0.2") // mixed: matches and delayed responses
		c = ipaddr.MustParse("10.0.0.3") // broadcast-style: steady ~330s echoes
		d = ipaddr.MustParse("10.0.0.4") // duplicate: 7 responses to one probe
		e = ipaddr.MustParse("10.0.0.5") // error-tainted
	)
	aRTT := []time.Duration{90 * time.Millisecond, 120 * time.Millisecond, 1200 * time.Millisecond,
		250 * time.Millisecond, 5500 * time.Millisecond, 160 * time.Millisecond}
	// b alternates: nil entries time out and answer late (25s, 80s, 146s).
	bRTT := []time.Duration{140 * time.Millisecond, 0, 150 * time.Millisecond, 0, 0, 130 * time.Millisecond}
	bLate := []time.Duration{0, 25 * time.Second, 0, 80 * time.Second, 146 * time.Second, 0}

	var recs []survey.Record
	for r := 0; r < 6; r++ {
		send := time.Duration(r) * interval
		recs = append(recs, survey.Record{Type: survey.RecMatched, Addr: a, When: send, RTT: aRTT[r]})
		if bRTT[r] != 0 {
			recs = append(recs, survey.Record{Type: survey.RecMatched, Addr: b, When: send, RTT: bRTT[r]})
		} else {
			recs = append(recs, survey.Record{Type: survey.RecTimeout, Addr: b, When: send})
		}
		recs = append(recs, survey.Record{Type: survey.RecTimeout, Addr: c, When: send})
		recs = append(recs, survey.Record{Type: survey.RecTimeout, Addr: d, When: send})
		switch r {
		case 1:
			recs = append(recs, survey.Record{Type: survey.RecError, Addr: e, When: send})
		default:
			recs = append(recs, survey.Record{Type: survey.RecMatched, Addr: e, When: send, RTT: 110 * time.Millisecond})
		}
		// This round's late arrivals, in arrival order. For unmatched
		// records the RTT field carries the packet count.
		if r == 0 {
			recs = append(recs, survey.Record{Type: survey.RecUnmatched, Addr: d, When: send + 2*time.Second, RTT: 7})
		}
		if bLate[r] != 0 {
			recs = append(recs, survey.Record{Type: survey.RecUnmatched, Addr: b, When: send + bLate[r], RTT: 1})
		}
		recs = append(recs, survey.Record{Type: survey.RecUnmatched, Addr: c, When: send + 330*time.Second, RTT: 1})
	}
	return recs
}

// TestRenderReportGolden pins the exact bytes of the analysis report for a
// hand-built dataset. Regenerate with: go test ./internal/core -run Golden -update
func TestRenderReportGolden(t *testing.T) {
	res := Match(goldenRecords(), MatchOptionsForCycles(6))
	if res.OutOfOrder != 0 {
		t.Fatalf("%d addresses of the emission-ordered golden dataset flagged out of order", res.OutOfOrder)
	}
	got := RenderReport(res, false)

	golden := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("report differs from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
