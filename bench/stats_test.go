package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{2.5, 7.25, 1, 9.5, 4, 3}, 2.125, 3.5, 7.8125},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if med := median(c.xs); med != c.m {
			t.Errorf("median(%v) = %v, want %v", c.xs, med, c.m)
		}
	}
	if q1, m, q3 := quartiles([]float64{7}); q1 != 7 || m != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v, %v, %v; want 7, 7, 7", q1, m, q3)
	}
	if _, m, _ := quartiles(nil); !math.IsNaN(m) {
		t.Errorf("median of no samples = %v, want NaN", m)
	}
}

func TestTailSampleLeavesTenAbove(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	cases := []struct {
		n          int
		ok         bool
		value, pct float64
	}{
		{0, false, 0, 0},
		{19, false, 0, 0},
		{20, true, 10, 50},
		{21, true, 11, 100 * 11.0 / 21},
		{100, true, 90, 90},
		{300, true, 290, 100 * 290.0 / 300},
	}
	for _, c := range cases {
		v, pct, ok := tailSample(seq(c.n))
		if ok != c.ok || v != c.value || pct != c.pct {
			t.Errorf("tailSample(n=%d) = %v, %v, %v; want %v, %v, %v", c.n, v, pct, ok, c.value, c.pct, c.ok)
		}
		if ok {
			above := 0
			for _, x := range seq(c.n) {
				if x > v {
					above++
				}
			}
			if above != 10 {
				t.Errorf("n=%d: %d samples above the tail, want 10", c.n, above)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 3, 1, 4, 2}
	for p, want := range map[float64]float64{20: 1, 50: 3, 90: 5, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}
