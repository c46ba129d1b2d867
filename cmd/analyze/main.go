// Command analyze runs the paper's analysis pipeline over a survey dataset
// written by cmd/surveyor: delayed-response matching, broadcast and
// duplicate filtering, and the minimum-timeout matrix (Table 2).
//
// Usage:
//
//	analyze survey.tosv [-cycles N] [-naive] [-lenient] [-max-skip F]
//	        [-metrics FILE] [-trace FILE] [-manifest FILE] [-debug-addr ADDR]
//
// Records stream out of the dataset reader straight into a
// core.StreamMatcher; the dataset is never held in memory. The matcher keeps
// a 56-byte cell per probed address (its open probes, count and flags), in
// the order the dataset first names it, and only an address that answers
// adds its filter state and every latency sample it recovers, so the
// report's quantiles are exact.
//
// The matcher relies on the dataset's emission order (per address, probes
// in send order, each unmatched response after the probes sent before it)
// and checks it. If any address's records break it, the report is printed
// and the run fails (exit 1) naming how many addresses are affected, since
// their responses may be credited to the wrong probes.
//
// With -lenient, corrupt records are skipped and counted per cause instead
// of aborting the run: CSV resynchronizes at the next row, the fixed binary
// format at the next record stride, and the compact format (whose varint
// encoding cannot be resynced) keeps everything read before the first bad
// record. The per-cause skip counts are reported on stderr. -max-skip sets
// the error budget: if the skipped fraction of the dataset exceeds it, the
// run fails (exit 1) after printing the report, so batch pipelines notice
// datasets too damaged to trust. The per-cause counts are printed on every
// exit path — budget exceeded or read failure included — so a failing run
// still reports what it managed to read. Without -lenient the first corrupt
// record is fatal.
//
// The observability flags sample the matcher: open-state high-water marks
// and the matched/recovered latency histograms whose tail fractions mirror
// the report's.
package main

import (
	"flag"
	"fmt"
	"os"

	"timeouts/internal/core"
	"timeouts/internal/obs"
	"timeouts/internal/survey"
)

func main() {
	var (
		cycles  = flag.Int("cycles", 0, "survey rounds (tunes the broadcast filter threshold; 0 = paper defaults)")
		naive   = flag.Bool("naive", false, "skip filtering (the paper's 'naive matching')")
		lenient = flag.Bool("lenient", false, "skip corrupt records (counted per cause) instead of failing fast")
		maxSkip = flag.Float64("max-skip", 0.05, "with -lenient: fail if more than this fraction of records is skipped")
	)
	cli := obs.RegisterCLI()
	flag.Parse()
	args := flag.Args()
	if len(args) > 1 {
		// Accept flags after the dataset path too: analyze survey.tosv -cycles 24.
		flag.CommandLine.Parse(args[1:])
		args = append([]string{args[0]}, flag.CommandLine.Args()...)
	}
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: analyze [flags] survey.tosv [flags]")
		os.Exit(2)
	}
	if err := cli.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	defer f.Close()

	var (
		src  survey.RecordSource
		stat survey.StatSource
		hdr  survey.Header
	)
	if *lenient {
		stat, hdr, err = survey.OpenSourceLenient(f)
		src = stat
	} else {
		src, hdr, err = survey.OpenSource(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}

	opt := core.Options{}
	if *cycles > 0 {
		opt = core.MatchOptionsForCycles(*cycles)
	}

	// Print the lenient read accounting on every exit path — a run that
	// fails its error budget (or dies mid-read) still reports what it
	// managed to read and why the rest was skipped.
	printReadStats := func() {
		if stat != nil {
			fmt.Fprintln(os.Stderr, "analyze: lenient read:", stat.Stats())
		}
	}

	m := core.NewStreamMatcher(opt)
	m.SetObserver(cli.Reg)
	if err := m.Consume(src); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		printReadStats()
		os.Exit(1)
	}
	records := m.Records()
	res := m.Finalize()

	fmt.Printf("dataset: %d records, vantage %c, seed %d\n", records, hdr.Vantage, hdr.Seed)
	fmt.Print(core.RenderReport(res, *naive))

	if err := cli.Finish("analyze", hdr.Seed, 1, nil); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}

	failed := false
	if stat != nil {
		rs := stat.Stats()
		printReadStats()
		total := rs.Records + rs.Skipped()
		if total > 0 {
			if frac := float64(rs.Skipped()) / float64(total); frac > *maxSkip {
				fmt.Fprintf(os.Stderr, "analyze: skipped fraction %.4f exceeds error budget %.4f\n", frac, *maxSkip)
				failed = true
			}
		}
	}
	if res.OutOfOrder > 0 {
		fmt.Fprintf(os.Stderr, "analyze: %d address(es) with records out of emission order; their responses may be credited to the wrong probes\n", res.OutOfOrder)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
