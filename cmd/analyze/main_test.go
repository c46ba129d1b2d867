package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"timeouts/internal/core"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
	"timeouts/internal/survey"
)

// analyzeBin is the analyze binary, built once for the package's tests.
var analyzeBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "analyze-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	analyzeBin = filepath.Join(dir, "analyze")
	if out, err := exec.Command("go", "build", "-o", analyzeBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

const (
	testSeed   = 42
	testCycles = 6
)

// surveyRecords runs a small survey and returns its records in emission
// order.
func surveyRecords(t *testing.T) []survey.Record {
	t.Helper()
	pop := netmodel.New(netmodel.Config{Seed: testSeed, Blocks: 32})
	model := netmodel.NewModel(pop)
	model.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
	var mem survey.MemWriter
	cfg := survey.Config{Vantage: survey.VantageW, Blocks: pop.Blocks(), Cycles: testCycles, Seed: testSeed}
	if _, err := survey.Run(simnet.NewNetwork(&simnet.Scheduler{}, model), cfg, &mem); err != nil {
		t.Fatal(err)
	}
	return mem.Records
}

// recordWriter is what the three dataset writers share.
type recordWriter interface {
	Write(survey.Record) error
	Flush() error
}

// writeDataset writes recs to a file in the named format and returns its
// path.
func writeDataset(t *testing.T, format string, recs []survey.Record) string {
	t.Helper()
	var buf bytes.Buffer
	hdr := survey.Header{Seed: testSeed, Vantage: 'w'}
	var w recordWriter
	switch format {
	case "tosv":
		w = survey.NewWriter(&buf, hdr)
	case "compact":
		w = survey.NewCompactWriter(&buf, hdr)
	case "csv":
		w = survey.NewCSVWriter(&buf)
	default:
		t.Fatalf("unknown format %q", format)
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "survey."+format)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runAnalyze runs the binary and returns its stdout, stderr and exit code.
func runAnalyze(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(analyzeBin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("running analyze: %v", err)
	}
	return out.String(), errOut.String(), code
}

// TestAnalyzeReportMatchesMatch checks that analyze, in every dataset
// format and with -naive on and off, prints the record count and then
// exactly the report core.Match renders over the same records.
func TestAnalyzeReportMatchesMatch(t *testing.T) {
	recs := surveyRecords(t)
	opt := core.MatchOptionsForCycles(testCycles)
	for _, format := range []string{"tosv", "compact", "csv"} {
		path := writeDataset(t, format, recs)
		for _, naive := range []bool{false, true} {
			args := []string{path, "-cycles", fmt.Sprint(testCycles)}
			if naive {
				args = append(args, "-naive")
			}
			stdout, stderr, code := runAnalyze(t, args...)
			if code != 0 {
				t.Fatalf("%s naive=%v: exit %d\n%s", format, naive, code, stderr)
			}
			first, report, _ := strings.Cut(stdout, "\n")
			if want := fmt.Sprintf("dataset: %d records, ", len(recs)); !strings.HasPrefix(first, want) {
				t.Errorf("%s naive=%v: first line %q, want prefix %q", format, naive, first, want)
			}
			if want := core.RenderReport(core.Match(recs, opt), naive); report != want {
				t.Errorf("%s naive=%v: report differs from core.Match's:\n--- analyze ---\n%s--- core.Match ---\n%s",
					format, naive, report, want)
			}
		}
	}
}

// TestAnalyzeOutOfOrderExits1 swaps one address's first two probe records:
// analyze must fail and name the one address out of emission order.
func TestAnalyzeOutOfOrderExits1(t *testing.T) {
	recs := surveyRecords(t)
	first := -1
	for i, rec := range recs {
		if rec.Type != survey.RecMatched && rec.Type != survey.RecTimeout {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		if rec.Addr == recs[first].Addr {
			recs[first], recs[i] = recs[i], recs[first]
			break
		}
	}
	_, stderr, code := runAnalyze(t, writeDataset(t, "tosv", recs), "-cycles", fmt.Sprint(testCycles))
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr)
	}
	if want := "1 address(es) with records out of emission order"; !strings.Contains(stderr, want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr)
	}
}

// TestAnalyzeLenientSkipBudget corrupts the record type of every tenth
// record: with -lenient, analyze reads the rest, and when the skipped share
// exceeds -max-skip it fails while still printing the per-cause counts.
func TestAnalyzeLenientSkipBudget(t *testing.T) {
	recs := surveyRecords(t)
	path := writeDataset(t, "tosv", recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const headerSize, recordSize = 24, 21
	bad := 0
	for i := 0; i < len(recs); i += 10 {
		data[headerSize+i*recordSize] = 0xff
		bad++
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runAnalyze(t, path, "-cycles", fmt.Sprint(testCycles), "-lenient", "-max-skip", "0.05")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr)
	}
	if want := fmt.Sprintf("dataset: %d records, ", len(recs)-bad); !strings.HasPrefix(stdout, want) {
		t.Errorf("stdout does not start with %q:\n%s", want, stdout)
	}
	for _, want := range []string{
		fmt.Sprintf("lenient read: records=%d skipped=%d (bad-type=%d ", len(recs)-bad, bad, bad),
		"exceeds error budget 0.0500",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}
