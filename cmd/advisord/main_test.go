package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/survey"
)

// buildAdvisord compiles the binary once per test run into a shared temp dir.
func buildAdvisord(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "advisord")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeDataset writes a small survey CSV: n matched probes spread over 16
// prefixes plus one timeout, the same shape the surveyor emits.
func writeDataset(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "survey.tosv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := survey.NewCSVWriter(f)
	for i := 0; i < n; i++ {
		if err := w.Write(survey.Record{
			Type: survey.RecMatched,
			Addr: ipaddr.Addr(0x0a000001 + uint32(i%16)<<8),
			When: time.Duration(i+1) * time.Second,
			RTT:  time.Duration(10+i%200) * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Write(survey.Record{Type: survey.RecTimeout, Addr: 0x0a000001, When: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

type advisordProc struct {
	cmd  *exec.Cmd
	addr string
	out  *bufio.Scanner
	done chan error
}

// startAdvisord launches the binary and blocks until it prints its listen
// address — the point at which /healthz is answering.
func startAdvisord(t *testing.T, bin string, args ...string) *advisordProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &advisordProc{cmd: cmd, out: bufio.NewScanner(stdout), done: make(chan error, 1)}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	for p.out.Scan() {
		line := p.out.Text()
		if rest, ok := strings.CutPrefix(line, "serving on "); ok {
			p.addr = rest
			return p
		}
	}
	t.Fatalf("advisord exited before printing its address: %v", p.out.Err())
	return nil
}

// drainOutput consumes remaining stdout lines (returning them) and waits for
// exit, so SIGTERM can't block on a full pipe.
func (p *advisordProc) wait(t *testing.T) ([]string, error) {
	t.Helper()
	var lines []string
	for p.out.Scan() {
		lines = append(lines, p.out.Text())
	}
	return lines, p.cmd.Wait()
}

func (p *advisordProc) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + p.addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestAdvisordEndToEnd drives the real binary through its lifecycle: ingest a
// CSV, serve advice, drain on SIGTERM with a final checkpoint, then restart
// from the checkpoint alone and keep serving the same epoch.
func TestAdvisordEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildAdvisord(t)
	dataset := writeDataset(t, 160)
	ckptDir := filepath.Join(t.TempDir(), "ckpt")

	p := startAdvisord(t, bin, "-i", dataset, "-checkpoint-dir", ckptDir)

	// Ingest of 160 records is near-instant but asynchronous to the address
	// line; poll /healthz until the gate opens.
	var health string
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := p.get(t, "/healthz")
		if code != http.StatusOK {
			t.Fatalf("/healthz: %d %s", code, body)
		}
		health = body
		if strings.Contains(body, `"state":"serving"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached serving state; last health: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(health, `"ok":true`) {
		t.Errorf("serving health not ok: %s", health)
	}

	code, body := p.get(t, "/timeout?addr=10.0.1.1")
	if code != http.StatusOK || !strings.Contains(body, `"source":"prefix"`) {
		t.Fatalf("/timeout = %d %s, want prefix advice", code, body)
	}

	// SIGTERM: graceful drain, final checkpoint, exit 0.
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	lines, err := p.wait(t)
	if err != nil {
		t.Fatalf("exit after SIGTERM: %v (output: %q)", err, lines)
	}
	if len(lines) == 0 || !strings.Contains(strings.Join(lines, "\n"), "final checkpoint written") {
		t.Errorf("drain output missing checkpoint confirmation: %q", lines)
	}
	gens, err := filepath.Glob(filepath.Join(ckptDir, "ckpt-*.tadv"))
	if err != nil || len(gens) == 0 {
		t.Fatalf("no checkpoint generations in %s (%v)", ckptDir, err)
	}

	// Restart from the checkpoint alone, with no -i. It must recover,
	// open the gate immediately, and serve the same advice epoch.
	p2 := startAdvisord(t, bin, "-checkpoint-dir", ckptDir)
	code, body = p2.get(t, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"state":"serving"`) {
		t.Fatalf("recovered /healthz = %d %s, want serving", code, body)
	}
	code, body = p2.get(t, "/timeout?addr=10.0.1.1")
	if code != http.StatusOK || !strings.Contains(body, `"source":"prefix"`) {
		t.Fatalf("recovered /timeout = %d %s, want prefix advice", code, body)
	}
	resp, err := http.Get("http://" + p2.addr + "/timeout?addr=10.0.1.1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e := resp.Header.Get("X-Advisor-Epoch"); e == "" || e == "0" {
		t.Errorf("recovered X-Advisor-Epoch = %q, want the checkpointed epoch", e)
	}
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.wait(t); err != nil {
		t.Fatalf("recovered instance exit after SIGTERM: %v", err)
	}
}

// TestAdvisordMetricsAndAccessLog drives the telemetry plane on the real
// binary: /metrics serves Prometheus text (serve histograms, live ingest
// series, runtime collectors, watchdog quantiles after a tick) and the
// sampled access log lands as parseable JSONL. With no checkpoint directory
// configured, SIGTERM must still drain and exit 0.
func TestAdvisordMetricsAndAccessLog(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildAdvisord(t)
	dataset := writeDataset(t, 160)
	logPath := filepath.Join(t.TempDir(), "access.jsonl")
	p := startAdvisord(t, bin, "-i", dataset,
		"-access-log", logPath, "-log-sample", "1",
		"-self-slo", "1ns", "-watchdog-interval", "50ms")

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, body := p.get(t, "/healthz"); strings.Contains(body, `"state":"serving"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never reached serving state")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		p.get(t, "/timeout?addr=10.0.1.1")
	}

	resp, err := http.Get("http://" + p.addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"advisor_http_latency_timeout_2xx_seconds_bucket",
		"advisor_http_latency_timeout_2xx_seconds_count",
		"advisor_ingest_live_records 161",
		"advisor_current_epoch",
		"advisor_snapshot_age_seconds",
		"go_goroutines",
		"go_gc_pause_seconds_bucket",
		`advisor_queries{class="diagnostic"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The watchdog samples every 50ms against a 1ns SLO: its quantiles and a
	// breach count must appear within a few ticks.
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, body := p.get(t, "/metrics")
		if strings.Contains(body, "advisor_self_p99_seconds") &&
			strings.Contains(body, "advisor_self_timeout_breach") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watchdog series never appeared; last scrape:\n%s", body)
		}
		time.Sleep(25 * time.Millisecond)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out, err := p.wait(t)
	if err != nil {
		t.Fatalf("exit after SIGTERM: %v (output %q)", err, out)
	}
	if !strings.Contains(strings.Join(out, "\n"), "drained") {
		t.Errorf("missing drain confirmation: %q", out)
	}
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("access log: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(logData)), "\n")
	if len(lines) < 20 {
		t.Fatalf("access log has %d lines, want >= 20", len(lines))
	}
	for _, line := range lines[:3] {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable access log line %q: %v", line, err)
		}
		for _, k := range []string{"id", "route", "status", "outcome", "duration_ms"} {
			if _, ok := rec[k]; !ok {
				t.Errorf("access log line missing %q: %s", k, line)
			}
		}
	}
}

// TestAdvisordRequiresInput pins the operator error: no dataset and no
// recoverable checkpoint directory must exit 2 before binding the listener.
func TestAdvisordRequiresInput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildAdvisord(t)
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-checkpoint-dir", filepath.Join(t.TempDir(), "empty"))
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("exit = %v (output %q), want exit code 2", err, out)
	}
	if !strings.Contains(string(out), "need -i DATASET") {
		t.Errorf("usage hint missing: %q", out)
	}
}

// TestAdvisordDrainsOnSignalMidIngest sends SIGTERM while advisord is still
// ingesting, 20 times. However early the signal lands, advisord must take
// its drain path: exit 0 with "drained" as its last line, never reopening
// the gate it drained and never returning before the drain's final lines.
func TestAdvisordDrainsOnSignalMidIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	const records = 400_000
	bin := buildAdvisord(t)
	dataset := writeDataset(t, records)
	cut := 0
	for i := 0; i < 20; i++ {
		p := startAdvisord(t, bin, "-i", dataset)
		time.Sleep(time.Duration(i%4) * time.Millisecond)
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		lines, err := p.wait(t)
		if err != nil {
			t.Fatalf("run %d: exit after SIGTERM: %v (output %q)", i, err, lines)
		}
		if len(lines) == 0 || lines[len(lines)-1] != "drained" {
			t.Fatalf("run %d: last line is not \"drained\": %q", i, lines)
		}
		for _, l := range lines {
			var n int
			if _, err := fmt.Sscanf(l, "ingested %d records", &n); err == nil && n < records+1 {
				cut++
			}
		}
	}
	// The signal must have landed mid-ingest, or the test shows nothing.
	t.Logf("%d of 20 signals cut ingest short", cut)
	if cut < 10 {
		t.Fatalf("only %d of 20 signals cut ingest short", cut)
	}
}
