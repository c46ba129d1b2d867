package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
)

// BenchResult is one benchmark line of `go test -bench -benchmem` output,
// parsed into the JSON shape `make bench` accumulates in BENCH_<date>.json
// (see README "Benchmark trajectory").
type BenchResult struct {
	Name        string  `json:"name"` // without the Benchmark prefix or -P suffix
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// PeakHeapBytes is the "peak-heap-B" custom metric emitted by
	// benchmarks that report a HeapSampler — the heap footprint the run
	// reached, gated against regressions like ns/op.
	PeakHeapBytes float64 `json:"peak_heap_bytes,omitempty"`
}

// PeakHeapUnit is the custom-metric unit HeapSampler.Report emits and
// ParseBench recognizes.
const PeakHeapUnit = "peak-heap-B"

// HeapSampler tracks the maximum live heap observed across Sample calls,
// reported as growth over a baseline taken at construction — a peak scoped
// and attributed to the sampled run. "Live" is /gc/heap/live:bytes from
// runtime/metrics: bytes the last GC proved reachable. The obvious
// alternatives mismeasure in a shared `go test -bench` process: HeapSys is
// process-monotone (earlier benchmarks own the high-water mark), and
// HeapAlloc rides the GC sawtooth, whose amplitude scales with every other
// benchmark's resident data (the shared lab keeps tens of MB live), so its
// peak mostly measures uncollected garbage. Live bytes exclude garbage by
// construction, and subtracting a post-GC baseline cancels the resident
// heap, leaving the workload's own footprint. Thread the Sample call into
// a per-event callback of the workload (a response sink, a record writer);
// only every Nth call pays for a metrics read, so the sampling overhead
// stays well under a percent of a microsecond-scale event loop.
type HeapSampler struct {
	every int
	n     int
	base  uint64
	peak  uint64
	buf   [1]metrics.Sample
}

const heapLiveMetric = "/gc/heap/live:bytes"

// NewHeapSampler returns a sampler that reads the heap on the first and
// every every'th Sample call (every <= 1: every call). It forces a GC so
// the baseline reflects current live data, not the previous benchmark's
// garbage — construct it before the timer starts (b.ResetTimer).
func NewHeapSampler(every int) *HeapSampler {
	if every < 1 {
		every = 1
	}
	h := &HeapSampler{every: every}
	h.buf[0].Name = heapLiveMetric
	runtime.GC()
	h.base = h.readLive()
	return h
}

func (h *HeapSampler) readLive() uint64 {
	metrics.Read(h.buf[:])
	return h.buf[0].Value.Uint64()
}

// Sample counts one event and, on the sampling cadence, folds the current
// live-heap figure into the peak. The figure only moves when a GC
// completes, so a workload that allocates enough to trigger collections —
// the kind worth measuring — is sampled at its mid-run live size.
func (h *HeapSampler) Sample() {
	if h.n%h.every == 0 {
		if v := h.readLive(); v > h.peak {
			h.peak = v
		}
	}
	h.n++
}

// Peak reports the largest live-heap growth over the construction-time
// baseline seen so far. It forces a final GC so still-reachable workload
// state is counted even when no collection ran since it was built; call it
// after the timer stops (b.StopTimer).
func (h *HeapSampler) Peak() uint64 {
	runtime.GC()
	if v := h.readLive(); v > h.peak {
		h.peak = v
	}
	if h.peak < h.base {
		return 0
	}
	return h.peak - h.base
}

// peakHeapFloor is the minimum Report emits: 1 MB. A literal zero would be
// dropped from the JSON (omitempty) and excluded from comparison, so a
// later blow-up could never gate; and percent deltas off a near-zero base
// turn sub-MB jitter into gate flaps. The floor keeps tiny footprints
// present, stable, and still miles below any real regression.
const peakHeapFloor = 1 << 20

// Report records the sampled peak on b as a PeakHeapUnit metric, floored
// at peakHeapFloor.
func (h *HeapSampler) Report(b interface{ ReportMetric(float64, string) }) {
	peak := h.Peak()
	if peak < peakHeapFloor {
		peak = peakHeapFloor
	}
	b.ReportMetric(float64(peak), PeakHeapUnit)
}

// ParseBench extracts benchmark results from `go test -bench` output,
// skipping every non-benchmark line (package headers, PASS/ok trailers).
// Lines it cannot parse are ignored rather than fatal, so a partially
// failing bench run still yields the results that completed.
func ParseBench(r io.Reader) []BenchResult {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		procs := 1
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], p
			}
		}
		iters, err1 := strconv.ParseInt(fields[1], 10, 64)
		nsop, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		res := BenchResult{Name: name, Procs: procs, Iterations: iters, NsPerOp: nsop}
		// Optional "<value> <unit>" column pairs: the -benchmem columns
		// ("B/op", "allocs/op") and custom metrics such as peak-heap-B.
		for i := 4; i+1 < len(fields); i += 2 {
			switch fields[i+1] {
			case "B/op":
				if v, err := strconv.ParseInt(fields[i], 10, 64); err == nil {
					res.BytesPerOp = v
				}
			case "allocs/op":
				if v, err := strconv.ParseInt(fields[i], 10, 64); err == nil {
					res.AllocsPerOp = v
				}
			case PeakHeapUnit:
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					res.PeakHeapBytes = v
				}
			}
		}
		out = append(out, res)
	}
	return out
}

// WriteBenchJSON parses bench output from r and writes the results as an
// indented JSON array to w — the body of cmd/benchjson.
func WriteBenchJSON(w io.Writer, r io.Reader) error {
	results := ParseBench(r)
	if results == nil {
		results = []BenchResult{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// BenchDelta is one benchmark's old-vs-new comparison. Regressed is set when
// ns/op grew by more than the caller's threshold; PeakRegressed when the
// peak-heap metric did (only possible when both sides report one).
type BenchDelta struct {
	Name        string
	Procs       int
	OldNsPerOp  float64
	NewNsPerOp  float64
	DeltaPct    float64 // positive = slower
	Regressed   bool
	OldPeakHeap float64
	NewPeakHeap float64
	PeakDelta   float64 // percent; positive = more memory
	PeakRegress bool
}

// CompareBench matches benchmarks by (Name, Procs) across two result sets
// and reports the ns/op — and, where both sides carry one, peak-heap —
// delta of each pair, flagging those that regressed by more than
// thresholdPct percent. Repeated entries for one (Name, Procs), as a
// `-count N` run or several rounds of one binary produce, are first reduced
// on each side to their median ns/op and median peak heap, so each
// benchmark yields one delta. A benchmark present on only one side is not a
// regression — it was renamed, added or deleted — but it is not covered
// either, so it is returned, median-reduced and in order of first
// appearance, in onlyOld or onlyNew.
func CompareBench(old, new []BenchResult, thresholdPct float64) (out []BenchDelta, onlyOld, onlyNew []BenchResult) {
	olds := medianBench(old)
	idx := make(map[benchKey]BenchResult, len(olds))
	for _, r := range olds {
		idx[benchKey{r.Name, r.Procs}] = r
	}
	for _, r := range medianBench(new) {
		k := benchKey{r.Name, r.Procs}
		o, ok := idx[k]
		if !ok {
			onlyNew = append(onlyNew, r)
			continue
		}
		delete(idx, k)
		if o.NsPerOp <= 0 {
			continue
		}
		pct := (r.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		d := BenchDelta{
			Name: r.Name, Procs: r.Procs,
			OldNsPerOp: o.NsPerOp, NewNsPerOp: r.NsPerOp,
			DeltaPct:  pct,
			Regressed: pct > thresholdPct,
		}
		if o.PeakHeapBytes > 0 && r.PeakHeapBytes > 0 {
			d.OldPeakHeap, d.NewPeakHeap = o.PeakHeapBytes, r.PeakHeapBytes
			d.PeakDelta = (r.PeakHeapBytes - o.PeakHeapBytes) / o.PeakHeapBytes * 100
			d.PeakRegress = d.PeakDelta > thresholdPct
		}
		out = append(out, d)
	}
	for _, r := range olds {
		if _, unmatched := idx[benchKey{r.Name, r.Procs}]; unmatched {
			onlyOld = append(onlyOld, r)
		}
	}
	return out, onlyOld, onlyNew
}

type benchKey struct {
	name  string
	procs int
}

// medianBench reduces the entries of each (Name, Procs), in order of first
// appearance, to one carrying the median ns/op and the median of the
// entries' peak-heap readings (0 when none has one).
func medianBench(rs []BenchResult) []BenchResult {
	var keys []benchKey
	ns := make(map[benchKey][]float64)
	peak := make(map[benchKey][]float64)
	for _, r := range rs {
		k := benchKey{r.Name, r.Procs}
		if _, seen := ns[k]; !seen {
			keys = append(keys, k)
		}
		ns[k] = append(ns[k], r.NsPerOp)
		if r.PeakHeapBytes > 0 {
			peak[k] = append(peak[k], r.PeakHeapBytes)
		}
	}
	out := make([]BenchResult, len(keys))
	for i, k := range keys {
		out[i] = BenchResult{Name: k.name, Procs: k.procs, NsPerOp: median(ns[k]), PeakHeapBytes: median(peak[k])}
	}
	return out
}

// median returns the middle of v (the mean of the two middle values for an
// even count), sorting v in place; 0 for an empty v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// WriteBenchSummary writes one human line per benchmark: name, ns/op and the
// derived events/sec rate — the `make bench` console summary.
func WriteBenchSummary(w io.Writer, results []BenchResult) {
	for _, r := range results {
		rate := ""
		if r.NsPerOp > 0 {
			rate = fmt.Sprintf("  %12.0f ops/sec", 1e9/r.NsPerOp)
		}
		fmt.Fprintf(w, "%-40s %14.1f ns/op%s", r.Name, r.NsPerOp, rate)
		if r.AllocsPerOp > 0 || r.BytesPerOp > 0 {
			fmt.Fprintf(w, "  %6d allocs/op", r.AllocsPerOp)
		}
		if r.PeakHeapBytes > 0 {
			fmt.Fprintf(w, "  %7.1f MB peak heap", r.PeakHeapBytes/(1<<20))
		}
		fmt.Fprintln(w)
	}
}

// WriteBenchDeltas writes one line per comparison, marking regressions
// (ns/op or peak heap), and reports whether any benchmark regressed.
func WriteBenchDeltas(w io.Writer, deltas []BenchDelta) (regressed bool) {
	for _, d := range deltas {
		mark := "  "
		if d.Regressed || d.PeakRegress {
			mark = "✗ "
			regressed = true
		} else if d.DeltaPct < -5 {
			mark = "✓ "
		}
		fmt.Fprintf(w, "%s%-40s %14.1f → %12.1f ns/op  %+7.1f%%",
			mark, d.Name, d.OldNsPerOp, d.NewNsPerOp, d.DeltaPct)
		if d.OldPeakHeap > 0 {
			fmt.Fprintf(w, "  %7.1f → %7.1f MB peak  %+7.1f%%",
				d.OldPeakHeap/(1<<20), d.NewPeakHeap/(1<<20), d.PeakDelta)
		}
		fmt.Fprintln(w)
	}
	return regressed
}
