package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		has    bool
		want   string
	}{
		{"same runs are unchanged", base, base, false, 0.1, true, "unchanged"},
		{"clearly faster is a gain", base, scaled(0.8), false, 0.1, true, "gain"},
		{"clearly higher throughput is a gain", base, scaled(1.2), true, 0.1, true, "gain"},
		{"slower beyond the bound is a regression", base, scaled(1.2), false, 0.1, true, "regression"},
		{"slower within the bound is unchanged", base, scaled(1.05), false, 0.1, true, "unchanged"},
		{"a spread wider than the bound is unresolved", base, noisy, false, 0.1, true, "unresolved"},
		{"noise does not hide a change every run shows", noisy, scaled(0.5), false, 0.1, true, "gain"},
		{"without a bound there is no regression", base, scaled(2), false, 0, false, "unchanged"},
		{"a win in 8 of 10 pairs is no gain",
			base, []float64{80, 81, 79, 80, 82, 78, 80, 81, 120, 120}, false, 0.5, true, "unchanged"},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.higher, c.bound, c.has).result; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFilesReadsResultLines(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("BENCHMARK.json", `{"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`)
	line := func(v string) string {
		return "human line\n" + `{"correct": true, "attempted": 1, "failed": 0, "metrics": {"w/latency_p50_ms": {"value": ` + v + `, "unit": "ms"}}}` + "\n"
	}
	var a, b []string
	for i, v := range []string{"100", "101", "99"} {
		a = append(a, write("a"+string(rune('0'+i)), line(v)))
		b = append(b, write("b"+string(rune('0'+i)), line(v)))
	}
	var out bytes.Buffer
	if err := compareFiles(bench, a, b, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "w/latency_p50_ms") || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("comparison output:\n%s", out.String())
	}
	bad := write("bad", `{"correct": false, "attempted": 2, "failed": 1, "metrics": {}}`)
	if err := compareFiles(bench, []string{bad}, b, &out); err == nil {
		t.Error("an incorrect run was compared")
	}
}
