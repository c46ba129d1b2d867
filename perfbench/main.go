// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload at one seed:
//
//	perfbench -workload scan|survey|advise -seed N -seconds S -trace 0|1
//	          -bin DIR -work DIR [-size full|toy] [-tamper OUTPUT]
//
// With -trace 0 it drives the real CLIs (zmapscan, surveyor + analyze,
// advisord), built from the checkout under test and run at their default
// settings, checks their outputs and prints the end-to-end metrics. With
// -trace 1 it runs the same CLIs once as a reference, then composes the
// same public calls those CLIs make in process, with spans and sampled
// timers around every layer seam, and prints the per-layer metrics. The last
// line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// perfbench/run.sh builds everything and passes -bin and -work;
// perfbench/README.md documents the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the CLIs' own default population seed; the pinned output
// digests (digests.go) hold for it.
const defaultSeed = 42

// sizes fixes the work one repetition does.
type sizes struct {
	name         string
	scanBlocks   int // zmapscan -blocks
	surveyBlocks int // surveyor -blocks
	cycles       int // surveyor -cycles, analyze -cycles
	requests     int // GET /timeout requests per advise repetition
	startups     int // process start-ups timed per scan/survey repetition
}

// Each advisord process serves at its own steady cost, up to a sixth apart
// between processes, so advise uses short repetitions to sample more of them
// per run.
var (
	fullSize = sizes{name: "full", scanBlocks: 16384, surveyBlocks: 512, cycles: 24, requests: 10000, startups: 15}
	toySize  = sizes{name: "toy", scanBlocks: 64, surveyBlocks: 64, cycles: 2, requests: 1000, startups: 3}
)

// bench is one benchmark run: its settings, its checks and its output.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	size     sizes
	bin      string // directory holding the built CLIs
	work     string // scratch directory inside the checkout
	pins     map[string]string

	attempted, failed int
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check counts one checked operation and reports it if it failed.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Printf("check failed: %s\n", fmt.Sprintf(format, args...))
	}
	return ok
}

// set records a metric for the final JSON line.
func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// note prints a named diagnostic or ungated metric with its unit.
func note(name string, v float64, unit string) {
	fmt.Printf("  %-32s %14.6g %s\n", name, v, unit)
}

func main() {
	var (
		workload = flag.String("workload", "", "scan, survey or advise")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed: population seed of the CLIs and seed of the request mix")
		seconds  = flag.Int("seconds", 20, "measure repetitions for this long (a started repetition always completes)")
		trace    = flag.Int("trace", 0, "1: traced in-process run printing the per-layer metrics")
		bin      = flag.String("bin", "", "directory with the built zmapscan, surveyor, analyze and advisord")
		work     = flag.String("work", "", "scratch directory for datasets and trace output")
		size     = flag.String("size", "full", "full, or toy for a smoke run at tiny sizes")
		tamper   = flag.String("tamper", "", "replace this pinned digest (e.g. analyze.report) with a wrong one, to exercise the check")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *bin, *work, *size, *tamper); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, bin, work, size, tamper string) error {
	b := &bench{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		bin: bin, work: work, pins: pinnedDigests(), metrics: map[string]metric{},
	}
	switch size {
	case "full":
		b.size = fullSize
	case "toy":
		b.size = toySize
	default:
		return fmt.Errorf("unknown -size %q", size)
	}
	if tamper != "" {
		key := b.size.name + "/" + tamper
		if _, ok := b.pins[key]; !ok {
			return fmt.Errorf("no pinned digest %q to tamper with", key)
		}
		b.pins[key] = strings.Repeat("0", 64)
	}
	if b.bin == "" || b.work == "" {
		return fmt.Errorf("need -bin and -work (perfbench/run.sh sets them)")
	}
	for _, name := range []string{"zmapscan", "surveyor", "analyze", "advisord"} {
		if _, err := os.Stat(filepath.Join(b.bin, name)); err != nil {
			return fmt.Errorf("missing CLI binary: %w", err)
		}
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}

	start := time.Now()
	steal0, stealErr := readSteal()
	var err error
	switch {
	case trace == 0 && workload == "scan":
		err = b.scanE2E()
	case trace == 0 && workload == "survey":
		err = b.surveyE2E()
	case trace == 0 && workload == "advise":
		err = b.adviseE2E()
	case trace == 1 && (workload == "scan" || workload == "survey" || workload == "advise"):
		err = b.traced()
	default:
		return fmt.Errorf("need -workload scan|survey|advise and -trace 0|1")
	}
	if err != nil {
		return err
	}

	fmt.Println("diagnostics (not gated):")
	note("wall", time.Since(start).Seconds(), "s")
	if steal1, err := readSteal(); err == nil && stealErr == nil {
		note("steal", steal1-steal0, "s")
	}
	note("failed_frac", float64(b.failed)/float64(max(b.attempted, 1)), "share")
	fmt.Printf("  GOMAXPROCS %d, nproc %d, %s, size %s, seed %d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), b.size.name, b.seed)

	names := make([]string, 0, len(b.metrics))
	for name := range b.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s metrics (%s):\n", map[int]string{0: "end-to-end", 1: "per-layer"}[trace], workload)
	for _, name := range names {
		note(name, b.metrics[name].Value, b.metrics[name].Unit)
	}
	out, err := json.Marshal(result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// readSteal returns the machine's cumulative steal time: field 8 of the cpu
// line of /proc/stat, in USER_HZ ticks, as seconds.
func readSteal() (float64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat cpu line %q", line)
	}
	var ticks float64
	if _, err := fmt.Sscan(f[8], &ticks); err != nil {
		return 0, err
	}
	return ticks / clockTicks, nil
}

// onTmpfs reports whether path sits on a tmpfs mount.
func onTmpfs(path string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return false
	}
	return st.Type == 0x01021994 // TMPFS_MAGIC
}
