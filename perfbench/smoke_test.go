package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds the CLIs and the benchmark, then runs every workload,
// untraced and traced, at toy sizes: each run must pass its checks and
// print every metric BENCHMARK.json names, with its unit. A tampered pinned
// digest must count as a failed operation, not abort the run.
//
//	go -C perfbench test ./...
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/",
		"./cmd/zmapscan", "./cmd/surveyor", "./cmd/analyze", "./cmd/advisord")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the CLIs: %v\n%s", err, out)
	}
	self := filepath.Join(bin, "perfbench")
	if out, err := exec.Command("go", "build", "-o", self, ".").CombinedOutput(); err != nil {
		t.Fatalf("building perfbench: %v\n%s", err, out)
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}

	work := t.TempDir()
	run := func(workload, trace, tamper string) (result, string) {
		t.Helper()
		args := []string{"-workload", workload, "-seed", "42", "-seconds", "0", "-trace", trace,
			"-bin", bin, "-work", work, "-size", "toy"}
		if tamper != "" {
			args = append(args, "-tamper", tamper)
		}
		out, err := exec.Command(self, args...).Output()
		if err != nil {
			t.Fatalf("perfbench %v: %v\n%s", args, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("perfbench %v: last line is not the result: %v\n%s", args, err, out)
		}
		return r, string(out)
	}

	for _, w := range spec.Workloads {
		for trace, metrics := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
			r, out := run(w.Name, trace, "")
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, r.Correct, r.Attempted, r.Failed, out)
			}
			if len(r.Metrics) != len(metrics) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(r.Metrics), len(metrics))
			}
			for _, m := range metrics {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, " "+m.Name+" ") {
					t.Errorf("%s trace %s: %s not printed by name", w.Name, trace, m.Name)
				}
			}
		}
	}

	r, out := run("survey", "0", "analyze.report")
	if r.Correct || r.Failed == 0 || !strings.Contains(out, "check failed: analyze.report digest") {
		t.Errorf("tampered analyze.report pin: correct=%v failed=%d\n%s", r.Correct, r.Failed, out)
	}
}
