package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads printed here match the ones the A/B
// procedure and BENCHMARK.json acceptance are stated in. With fewer than two
// samples all three equal the single value (NaN for none).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) < 2 {
		v := math.NaN()
		if len(xs) == 1 {
			v = xs[0]
		}
		return v, v, v
	}
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		// Python clamps j to [1, n-1] before computing delta, so two
		// samples extrapolate rather than clamp; mirror it exactly.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailSample returns the highest-ranked sample that still has at least ten
// samples above it, and the percentile it stands for, 100*(n-10)/n: the
// choosing-metrics rule for the tail a run of n samples can support. Runs of
// fewer than twenty samples support no tail beyond the median, so ok is
// false.
func tailSample(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100),
// or NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}
