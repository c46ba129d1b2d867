package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// zmapscanBin is the zmapscan binary, built once for the package's tests.
var zmapscanBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "zmapscan-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	zmapscanBin = filepath.Join(dir, "zmapscan")
	if out, err := exec.Command("go", "build", "-o", zmapscanBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runZmapscan runs the binary and returns its stdout, stderr and exit code.
func runZmapscan(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(zmapscanBin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("running zmapscan: %v", err)
	}
	return out.String(), errOut.String(), code
}

// wallField is the only part of zmapscan's stdout that varies between
// runs of the same scan.
var wallField = regexp.MustCompile(`in \S+ \(wall\)`)

// TestZmapscanParallelIdentical checks that a 64-block scan prints the same
// report at -parallel 1, 3 and 0 (one shard per CPU), with and without wire
// faults, and writes byte-identical -metrics snapshots; the fault runs
// report the corrupt packets they skipped.
func TestZmapscanParallelIdentical(t *testing.T) {
	for _, faults := range [][]string{nil, {"-fault-dup", "0.2", "-fault-corrupt", "0.05"}} {
		var wantOut, wantMetrics string
		for _, parallel := range []string{"1", "3", "0"} {
			metrics := filepath.Join(t.TempDir(), "metrics.json")
			args := append([]string{"-blocks", "64", "-duration", "10m", "-parallel", parallel, "-metrics", metrics}, faults...)
			stdout, stderr, code := runZmapscan(t, args...)
			if code != 0 {
				t.Fatalf("%v: exit %d\n%s", args, code, stderr)
			}
			if !strings.HasPrefix(stdout, "scanned 16384 addresses in ") || !strings.Contains(stdout, "\nRTT: median ") {
				t.Fatalf("%v: no scan report:\n%s", args, stdout)
			}
			if got := strings.Contains(stdout, "\nfaults: seed=1 corrupt packets skipped="); got != (faults != nil) {
				t.Errorf("%v: faults line printed=%v, want %v:\n%s", args, got, faults != nil, stdout)
			}
			snap, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			out := wallField.ReplaceAllString(stdout, "in - (wall)")
			if parallel == "1" {
				wantOut, wantMetrics = out, string(snap)
				continue
			}
			if out != wantOut {
				t.Errorf("%v: stdout differs from -parallel 1:\n%s\nwant:\n%s", args, out, wantOut)
			}
			if string(snap) != wantMetrics {
				t.Errorf("%v: -metrics snapshot differs from -parallel 1", args)
			}
		}
	}
}

// TestZmapscanRejectsTooFewBlocks: the default catalog's 30 ASes need at
// least 30 blocks.
func TestZmapscanRejectsTooFewBlocks(t *testing.T) {
	_, stderr, code := runZmapscan(t, "-blocks", "16")
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, stderr)
	}
	if want := "16 blocks cannot cover 30 ASes"; !strings.Contains(stderr, want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr)
	}
}
