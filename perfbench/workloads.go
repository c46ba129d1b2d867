package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"syscall"
	"time"
)

var (
	reScanned   = regexp.MustCompile(`scanned (\d+) addresses in \S+ \(wall\), (\d+) responders`)
	reScanWall  = regexp.MustCompile(`in \S+ \(wall\)`)
	reProbes    = regexp.MustCompile(`probes=(\d+)`)
	reRecords   = regexp.MustCompile(`\((\d+) records, tosv format\)`)
	reAnalyzed  = regexp.MustCompile(`(?m)^dataset: (\d+) records`)
	reIngested  = regexp.MustCompile(`^ingested (\d+) records \((\d+) skipped\)`)
	reServingOn = regexp.MustCompile(`^serving on (\S+)`)
	reEpoch     = regexp.MustCompile(`(?m)^  "epoch": \d+,$`)
)

// tosv dataset layout (internal/survey/format.go): a fixed header, then
// fixed-size records.
const (
	tosvHeader = 24
	tosvRecord = 21
)

// pinned prints an output's digest and checks it against the pinned one,
// when one exists for this size at the default seed.
func (b *bench) pinned(key, digest string) {
	want, ok := b.pins[b.size.name+"/"+key]
	if b.seed != defaultSeed || !ok {
		fmt.Printf("digest %s %s\n", key, digest)
		return
	}
	if b.check(digest == want, "%s digest %s, pinned %s", key, digest, want) {
		fmt.Printf("digest %s %s (pinned)\n", key, digest)
	}
}

// scanRun is one zmapscan run.
type scanRun struct {
	run               procRun
	probes, responses uint64
}

// scanCLI runs zmapscan at the workload's size and checks its output.
func (b *bench) scanCLI() (scanRun, error) {
	r := b.runCLI("zmapscan", "-blocks", strconv.Itoa(b.size.scanBlocks), "-seed", strconv.FormatUint(b.seed, 10))
	if r.err != nil {
		return scanRun{}, r.err
	}
	m := reScanned.FindSubmatch(r.stdout)
	if !b.check(m != nil, "zmapscan printed no scan summary") {
		return scanRun{}, fmt.Errorf("zmapscan output unparsable")
	}
	probes, _ := strconv.ParseUint(string(m[1]), 10, 64)
	resp, _ := strconv.ParseUint(string(m[2]), 10, 64)
	want := uint64(256 * b.size.scanBlocks)
	b.check(probes == want, "zmapscan probes %d, want 256 x %d blocks = %d", probes, b.size.scanBlocks, want)
	b.pinned("zmapscan.stdout", sha256Hex(reScanWall.ReplaceAll(r.stdout, []byte("in - (wall)"))))
	return scanRun{run: r, probes: probes, responses: resp}, nil
}

func (b *bench) scanE2E() error {
	var setup, rss, cpu, unit []float64
	err := b.repeat(3, func() error {
		setup = append(setup, b.startupSeconds("zmapscan", b.size.startups)...)
		s, err := b.scanCLI()
		if err != nil {
			return err
		}
		rss = append(rss, s.run.rssMB)
		cpu = append(cpu, s.run.cpu.Seconds())
		unit = append(unit, float64(s.run.cpu.Nanoseconds())/float64(s.probes))
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("scan: %d runs of zmapscan -blocks %d\n", len(cpu), b.size.scanBlocks)
	fmt.Printf("  cpu_s per run: %.3f\n", cpu)
	note("probe_cpu_ns", median(unit), "ns/probe")
	note("peak_rss_mb", median(rss), "MB")
	b.set("setup_s", median(setup), "s")
	b.set("peak_rss_mb", median(rss), "MB")
	b.set("cpu_s", median(cpu), "s")
	b.set("unit_cpu_ns", median(unit), "ns")
	return nil
}

// surveyRun is one surveyor run and the analyze runs over its dataset.
type surveyRun struct {
	surveyor              procRun
	analyze               []procRun
	probes, records       uint64
	datasetSHA, reportSHA string
}

// surveyCLI writes a dataset with surveyor to path, analyzes it analyses
// times with analyze, and checks every output.
func (b *bench) surveyCLI(path string, analyses int) (surveyRun, error) {
	var s surveyRun
	s.surveyor = b.runCLI("surveyor", "-o", path,
		"-blocks", strconv.Itoa(b.size.surveyBlocks), "-cycles", strconv.Itoa(b.size.cycles),
		"-seed", strconv.FormatUint(b.seed, 10))
	if s.surveyor.err != nil {
		return s, s.surveyor.err
	}
	var ok1, ok2 bool
	s.probes, ok1 = submatchUint(reProbes, s.surveyor.stdout)
	s.records, ok2 = submatchUint(reRecords, s.surveyor.stdout)
	if !b.check(ok1 && ok2, "surveyor printed no probe/record summary") {
		return s, fmt.Errorf("surveyor output unparsable")
	}
	want := uint64(256 * b.size.surveyBlocks * b.size.cycles)
	b.check(s.probes == want, "surveyor probes %d, want 256 x %d blocks x %d cycles = %d",
		s.probes, b.size.surveyBlocks, b.size.cycles, want)
	if fi, err := os.Stat(path); b.check(err == nil, "dataset: %v", err) {
		n := (fi.Size() - tosvHeader) / tosvRecord
		b.check(uint64(n) == s.records && (fi.Size()-tosvHeader)%tosvRecord == 0,
			"dataset holds %d records (%d bytes), surveyor printed %d", n, fi.Size(), s.records)
	}
	var err error
	if s.datasetSHA, err = fileSHA256(path); err != nil {
		return s, err
	}
	b.pinned("surveyor.dataset", s.datasetSHA)

	for i := 0; i < analyses; i++ {
		r := b.runCLI("analyze", path, "-cycles", strconv.Itoa(b.size.cycles))
		if r.err != nil {
			return s, r.err
		}
		got, ok := submatchUint(reAnalyzed, r.stdout)
		b.check(ok && got == s.records, "analyze read %d records, surveyor wrote %d", got, s.records)
		report := sha256Hex(r.stdout)
		if i == 0 {
			s.reportSHA = report
		} else {
			b.check(report == s.reportSHA, "analyze report %s, the previous run's %s", report, s.reportSHA)
		}
		b.pinned("analyze.report", report)
		s.analyze = append(s.analyze, r)
	}
	return s, nil
}

// analyzeRuns is how many times each survey repetition analyzes its
// dataset: analyze is a third of the pipeline's time, and its CPU and peak
// RSS vary by several percent between runs, so more samples steady their
// medians.
const analyzeRuns = 2

func (b *bench) surveyE2E() error {
	path := filepath.Join(b.work, "survey.tosv")
	defer os.Remove(path)
	var setup, rss, cpu, unit, probeCPU []float64
	err := b.repeat(3, func() error {
		setup = append(setup, b.startupSeconds("surveyor", b.size.startups)...)
		s, err := b.surveyCLI(path, analyzeRuns)
		if err != nil {
			return err
		}
		for _, a := range s.analyze {
			rss = append(rss, max(s.surveyor.rssMB, a.rssMB))
			cpu = append(cpu, (s.surveyor.cpu + a.cpu).Seconds())
			unit = append(unit, float64(a.cpu.Nanoseconds())/float64(s.records))
		}
		probeCPU = append(probeCPU, float64(s.surveyor.cpu.Nanoseconds())/float64(s.probes))
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("survey: %d runs of surveyor -blocks %d -cycles %d, each analyzed %d times\n",
		len(probeCPU), b.size.surveyBlocks, b.size.cycles, analyzeRuns)
	fmt.Printf("  cpu_s per surveyor + analyze: %.3f\n", cpu)
	note("probe_cpu_ns", median(probeCPU), "ns/probe")
	note("analyze_cpu_ns", median(unit), "ns/record")
	note("peak_rss_mb", median(rss), "MB")
	note("dataset_on_tmpfs", boolFloat(onTmpfs(b.work)), "bool")
	b.set("setup_s", median(setup), "s")
	b.set("peak_rss_mb", median(rss), "MB")
	b.set("cpu_s", median(cpu), "s")
	b.set("unit_cpu_ns", median(unit), "ns")
	return nil
}

// adviseDataset returns the advise workload's input: the surveyor dataset
// for this seed, generated once into a per-seed cache and reused.
func (b *bench) adviseDataset() (string, uint64, error) {
	dir := filepath.Join(b.work, "cache")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("advise-%s-%d.tosv", b.size.name, b.seed))
	if _, err := os.Stat(path); err != nil {
		pruneCache(dir, 2)
		tmp := path + ".tmp"
		r := b.runCLI("surveyor", "-o", tmp,
			"-blocks", strconv.Itoa(b.size.surveyBlocks), "-cycles", strconv.Itoa(b.size.cycles),
			"-seed", strconv.FormatUint(b.seed, 10))
		if r.err != nil {
			return "", 0, r.err
		}
		if err := os.Rename(tmp, path); err != nil {
			return "", 0, err
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return "", 0, err
	}
	return path, uint64((fi.Size() - tosvHeader) / tosvRecord), nil
}

// pruneCache keeps the newest keep-1 datasets in dir, making room for one
// more: the cache holds inputs, not results, so dropping one only costs a
// regeneration outside the timed phases.
func pruneCache(dir string, keep int) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type file struct {
		path string
		mod  time.Time
	}
	var files []file
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			files = append(files, file{filepath.Join(dir, e.Name()), info.ModTime()})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.After(files[j].mod) })
	for i := keep - 1; i >= 0 && i < len(files); i++ {
		os.Remove(files[i].path)
	}
}

// adviseRun is one advisord lifetime: ingest, serve the load, drain.
type adviseRun struct {
	setup          time.Duration // exec until /healthz reports ok
	ingestCPU      time.Duration // advisord CPU when ready
	serveCPU       time.Duration // advisord CPU during the load
	total          procRun       // the whole process, from wait4
	records        uint64        // records advisord reported ingesting
	load           loadResult
	snapshotMasked string // digest of /snapshot with its epoch masked
}

// adviseCLI starts advisord on the dataset, waits until it is ready,
// drives the closed-loop load, fetches /snapshot and drains it with
// SIGTERM, checking each step.
func (b *bench) adviseCLI(dataset string, records uint64, m *requestMix) (adviseRun, error) {
	var a adviseRun
	cmd := exec.Command(filepath.Join(b.bin, "advisord"), "-i", dataset, "-listen", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return a, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return a, err
	}
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	lines := make(chan string, 16) // advisord prints a handful of lines
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	var out []string
	next := func(re *regexp.Regexp) ([]string, error) {
		deadline := time.After(60 * time.Second)
		for {
			select {
			case l, ok := <-lines:
				if !ok {
					return nil, fmt.Errorf("advisord exited early: %s", lastLine(stderr.Bytes()))
				}
				out = append(out, l)
				if m := re.FindStringSubmatch(l); m != nil {
					return m, nil
				}
			case <-deadline:
				return nil, fmt.Errorf("advisord: no line matching %q within 60s", re)
			}
		}
	}
	sm, err := next(reServingOn)
	if err != nil {
		return a, err
	}
	base := "http://" + sm[1]
	im, err := next(reIngested)
	if err != nil {
		return a, err
	}
	a.records, _ = strconv.ParseUint(im[1], 10, 64)
	b.check(a.records == records && im[2] == "0",
		"advisord ingested %s records (%s skipped), dataset holds %d", im[1], im[2], records)

	c := newClient()
	defer c.CloseIdleConnections()
	if err := waitHealthy(c, base, 60*time.Second); !b.check(err == nil, "advisord /healthz: %v", err) {
		return a, err
	}
	a.setup = time.Since(start)
	pid := cmd.Process.Pid
	if a.ingestCPU, err = procCPU(pid); err != nil {
		return a, err
	}
	a.load = closedLoop(base, m.paths, loadConns)
	end, err := procCPU(pid)
	if err != nil {
		return a, err
	}
	a.serveCPU = end - a.ingestCPU
	for _, e := range a.load.errs {
		b.check(false, "%s", e)
	}
	b.attempted += a.load.sent - len(a.load.errs) // the requests that passed
	b.check(a.load.sent == len(m.paths), "sent %d of %d requests", a.load.sent, len(m.paths))

	var snapshot []byte
	resp, err := c.Get(base + "/snapshot")
	if b.check(err == nil, "GET /snapshot: %v", err) {
		snapshot, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		b.check(err == nil && resp.StatusCode == 200, "GET /snapshot: status %d, %v", resp.StatusCode, err)
	}
	a.snapshotMasked = sha256Hex(reEpoch.ReplaceAll(snapshot, []byte(`  "epoch": 0,`)))
	b.pinned("advisord.snapshot", sha256Hex(snapshot))
	c.CloseIdleConnections()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return a, err
	}
	kill := time.AfterFunc(cliTimeout, func() { cmd.Process.Kill() })
	for l := range lines {
		out = append(out, l)
	}
	werr := cmd.Wait()
	kill.Stop()
	exited = true
	b.check(werr == nil, "advisord exit after SIGTERM: %v: %s", werr, lastLine(stderr.Bytes()))
	b.check(len(out) > 0 && out[len(out)-1] == "drained", "advisord did not print drained: %q", out)
	if ps := cmd.ProcessState; ps != nil {
		a.total.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			a.total.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	return a, nil
}

func (b *bench) adviseE2E() error {
	dataset, records, err := b.adviseDataset()
	if err != nil {
		return err
	}
	m := newRequestMix(b.seed, b.size.surveyBlocks, b.size.requests)
	var setup, rss, cpu, unit, ingest []float64
	var lat []time.Duration
	err = b.repeat(3, func() error {
		a, err := b.adviseCLI(dataset, records, m)
		if err != nil {
			return err
		}
		setup = append(setup, a.setup.Seconds())
		rss = append(rss, a.total.rssMB)
		cpu = append(cpu, a.total.cpu.Seconds())
		unit = append(unit, float64(a.serveCPU.Nanoseconds())/float64(max(a.load.ok, 1)))
		ingest = append(ingest, float64(a.ingestCPU.Nanoseconds())/float64(a.records))
		lat = append(lat, a.load.latency...)
		return nil
	})
	if err != nil {
		return err
	}
	p50, p99 := percentileUS(lat, 0.50), percentileUS(lat, 0.99)
	fmt.Printf("advise: %d advisord runs, %d x GET /timeout each over %d keep-alive connections (closed loop)\n",
		len(cpu), b.size.requests, loadConns)
	fmt.Printf("  cpu_s per run: %.3f\n  serve ns/request per run: %.0f\n", cpu, unit)
	note("ingest_cpu_ns", median(ingest), "ns/record")
	note("serve_cpu_us", median(unit)/1e3, "us/request")
	note("serve_p50_us", p50, "us")
	fmt.Printf("  %-32s %14.6g us (%d samples, %d beyond)\n", "serve_p99_us", p99, len(lat), len(lat)/100)
	note("peak_rss_mb", median(rss), "MB")
	note("dataset_on_tmpfs", boolFloat(onTmpfs(dataset)), "bool")
	b.set("setup_s", median(setup), "s")
	b.set("peak_rss_mb", median(rss), "MB")
	b.set("cpu_s", median(cpu), "s")
	b.set("unit_cpu_ns", median(unit), "ns")
	return nil
}

// percentileUS is the q-quantile of lat in microseconds.
func percentileUS(lat []time.Duration, q float64) float64 {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	return quantile(xs, q)
}

func boolFloat(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
