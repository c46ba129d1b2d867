// Command benchjson converts `go test -bench` output on stdin into a JSON
// array of benchmark results on stdout — the machine-readable form `make
// bench` stores as BENCH_<date>.json (see README "Benchmark trajectory") —
// and compares two such files as the benchmark-regression gate behind
// `make bench-compare`.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson > BENCH_2026-08-06.json
//	go test -bench=. -benchmem ./... | benchjson -summary > BENCH_2026-08-06.json
//	benchjson -compare BENCH_old.json BENCH_new.json [-threshold 10]
//
// In convert mode, non-benchmark lines (package headers, PASS/ok trailers)
// are skipped, and unparsable benchmark lines are ignored rather than fatal,
// so a partially failing bench run still yields the results that completed.
// With -summary, a one-line-per-benchmark human summary (name, ns/op,
// ops/sec) is also printed to stderr.
//
// In compare mode, benchmarks are matched by name and GOMAXPROCS suffix,
// repeated entries on either side (a -count N run, or the alternating
// rounds of `make bench-compare BENCH_BASE_REF=<ref>`) are reduced to their
// median, and the exit status is 1 when any matched benchmark's ns/op — or,
// for benchmarks reporting the peak-heap-B metric (obs.HeapSampler), its
// peak heap — grew by more than the threshold percentage (default 10): the
// CI regression gate covers time and memory footprint alike. Benchmarks
// found in only one file are named on stderr ("only in old", "only in
// new"), so a renamed or deleted benchmark cannot leave the gate unseen;
// they do not change the exit status.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"timeouts/internal/obs"
)

func main() {
	compare := flag.Bool("compare", false, "compare two BENCH_*.json files (old new) instead of converting stdin")
	threshold := flag.Float64("threshold", 10, "regression threshold in percent ns/op growth (with -compare)")
	summary := flag.Bool("summary", false, "also print a one-line-per-benchmark summary to stderr (convert mode)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		oldRes, err := readBenchJSON(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		newRes, err := readBenchJSON(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		deltas, onlyOld, onlyNew := obs.CompareBench(oldRes, newRes, *threshold)
		for _, r := range onlyOld {
			fmt.Fprintf(os.Stderr, "benchjson: only in old: %s (procs %d)\n", r.Name, r.Procs)
		}
		for _, r := range onlyNew {
			fmt.Fprintf(os.Stderr, "benchjson: only in new: %s (procs %d)\n", r.Name, r.Procs)
		}
		if len(deltas) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: no matching benchmarks to compare")
			return
		}
		if obs.WriteBenchDeltas(os.Stdout, deltas) {
			fmt.Fprintf(os.Stderr, "benchjson: ns/op or peak-heap regression beyond %.0f%% (%s vs %s)\n",
				*threshold, flag.Arg(0), flag.Arg(1))
			os.Exit(1)
		}
		return
	}

	results := obs.ParseBench(os.Stdin)
	if *summary {
		obs.WriteBenchSummary(os.Stderr, results)
	}
	if results == nil {
		results = []obs.BenchResult{}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func readBenchJSON(path string) ([]obs.BenchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []obs.BenchResult
	if err := json.NewDecoder(f).Decode(&out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}
