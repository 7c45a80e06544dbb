package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsEmitBenchmarkMetrics runs every workload at the shortest run
// length, untraced and traced, and checks that each run succeeds and prints
// a result line carrying every metric BENCHMARK.json lists, with its unit.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		benchmarkFile
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", listed, names)
	}
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				t.Parallel()
				checkEmits(t, w, traced, want)
			})
		}
	}
}

// checkEmits runs the workload at the shortest run length and checks its
// result line against the metric definitions.
func checkEmits(t *testing.T, w workload, traced bool, want []metricDef) {
	var stdout, stderr bytes.Buffer
	if code := runOne(w, 1, 1, traced, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	res, err := parseResult(lines[len(lines)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("no %s", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s in %s, want %s", d.Name, m.Unit, d.Unit)
		case !traced && m.Value <= 0:
			t.Errorf("end-to-end %s = %v, want a positive measurement", d.Name, m.Value)
		}
	}
}

// TestPlanPrefixDoesNotDependOnLength pins what served_total relies on: a
// client's first requests are the same whatever the run length, and every
// whole block holds the mix's exact proportions.
func TestPlanPrefixDoesNotDependOnLength(t *testing.T) {
	short, err := planClient(3, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	long, err := planClient(3, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range short {
		l := long[i]
		if r.kind != l.kind || r.of != l.of || !bytes.Equal(r.body, l.body) {
			t.Fatalf("request %d differs between plans of 12 and 30 requests", i)
		}
	}
	if long[0].kind == kindResubmit {
		t.Error("the first request resubmits a job that does not exist")
	}
	for b := 0; b < 3; b++ {
		counts := map[int]int{}
		for _, r := range long[b*10 : b*10+10] {
			counts[r.kind]++
			if r.kind == kindResubmit && (r.of >= r.index || long[r.of].kind == kindResubmit) {
				t.Errorf("request %d resubmits request %d", r.index, r.of)
			}
		}
		if counts[kindSmall] != 7 || counts[kindLong] != 1 || counts[kindResubmit] != 2 {
			t.Errorf("block %d mix %v, want 7 small, 1 long, 2 resubmissions", b, counts)
		}
	}
}
