package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat and /proc/stat times
// on Linux.
const clockTicks = 100

// procRun is one finished CLI process, measured from outside.
type procRun struct {
	stdout []byte
	cpu    time.Duration // user + system, from wait4
	rssMB  float64       // peak resident set, from wait4
	err    error         // start failure or non-zero exit
}

// cliTimeout bounds one CLI run, or advisord's drain, well inside the
// benchmark's own time limit; a CLI that hangs is killed and the run fails.
const cliTimeout = 60 * time.Second

// runCLI runs one CLI to completion and measures it.
func (b *bench) runCLI(name string, args ...string) procRun {
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(b.bin, name), args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	r := procRun{stdout: out.Bytes(), err: err}
	if err != nil {
		r.err = fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, lastLine(errOut.Bytes()))
	}
	if ps := cmd.ProcessState; ps != nil {
		r.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	return r
}

// startupSeconds returns the wall seconds of n launches of a CLI that
// parses its flags and exits (-h): process start-up, package
// initialization and flag parsing, the set-up every run pays before its
// first unit of work.
func (b *bench) startupSeconds(name string, n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(filepath.Join(b.bin, name), "-h")
		start := time.Now()
		err := cmd.Run()
		if b.check(err == nil, "%s -h: %v", name, err) {
			out = append(out, time.Since(start).Seconds())
		}
	}
	return out
}

// procCPU returns a live process's cumulative user + system CPU time from
// /proc/<pid>/stat (fields 14 and 15, USER_HZ ticks).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis, at field 3.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// sha256Hex digests b.
func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// fileSHA256 digests a file.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// submatchUint parses the first capture group of re in s.
func submatchUint(re *regexp.Regexp, s []byte) (uint64, bool) {
	m := re.FindSubmatch(s)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseUint(string(m[1]), 10, 64)
	return v, err == nil
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// repeat runs rep at least atLeast times, and again while the measuring
// window has time left; a started repetition always completes.
func (b *bench) repeat(atLeast int, rep func() error) error {
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < b.seconds; i++ {
		if err := rep(); err != nil {
			return err
		}
	}
	return nil
}
