package core

import (
	"fmt"
	"math"
)

// Budget is the output of Algorithm 1: the largest greedy selection size
// L_max and the optimal segment sizes p*_1..p*_{s+1} such that the
// worst-case number of deployed UAVs g(L_max, p*) stays within K.
type Budget struct {
	// S is the anchor count the budget was computed for.
	S int
	// LMax is the maximum number of UAVs placed by the greedy phase.
	LMax int
	// P holds the s+1 segment sizes: P[0] = p_1, P[i] = p_{i+1}, ...,
	// P[S] = p_{s+1}.
	P []int
	// G is g(LMax, P), the worst-case total UAV count including relays.
	G int
}

// hMax returns h_max = max{p_1, p_{s+1}, max_{2<=i<=s} ceil(p_i / 2)}
// (Section III-C), the largest admissible hop distance from the anchor set.
func hMax(p []int) int {
	s := len(p) - 1
	h := p[0]
	if p[s] > h {
		h = p[s]
	}
	for i := 1; i < s; i++ {
		if c := (p[i] + 1) / 2; c > h {
			h = c
		}
	}
	return h
}

// QValues returns the hop-count caps Q_0..Q_hmax of Eq. (1):
//
//	Q_0 = L
//	Q_h = max(p_1-(h-1), 0) + sum_{i=2..s} max(p_i-2(h-1), 0)
//	      + max(p_{s+1}-(h-1), 0),  1 <= h <= hmax.
func QValues(l int, p []int) []int {
	s := len(p) - 1
	hm := hMax(p)
	q := make([]int, hm+1)
	q[0] = l
	for h := 1; h <= hm; h++ {
		total := max(p[0]-(h-1), 0)
		for i := 1; i < s; i++ {
			total += max(p[i]-2*(h-1), 0)
		}
		total += max(p[s]-(h-1), 0)
		q[h] = total
	}
	return q
}

// GUpper evaluates Eq. (2): the worst-case number of UAVs needed to connect
// a feasible greedy selection, including relay nodes:
//
//	g = s + sum_{i=2..s} p_i + p_1(p_1+1)/2
//	  + sum_{i=2..s} (p_i^2 + 2 p_i + (p_i mod 2)) / 4
//	  + p_{s+1}(p_{s+1}+1)/2.
func GUpper(p []int) int {
	s := len(p) - 1
	g := s
	g += p[0] * (p[0] + 1) / 2
	for i := 1; i < s; i++ {
		pi := p[i]
		g += pi
		g += (pi*pi + 2*pi + pi%2) / 4
	}
	g += p[s] * (p[s] + 1) / 2
	return g
}

// segmentCombos enumerates the candidate (p, j) shapes of Algorithm 1 for a
// given guess L: the middle segments take values {p, p+1} with j of them at
// p+1, and the two end segments split the remainder as evenly as possible.
// For s = 1 there are no middle segments and the single shape splits L-s
// between p_1 and p_2. The callback receives a freshly allocated slice.
func segmentCombos(l, s int, yield func(p []int)) {
	d := l - s // total intermediate nodes to distribute
	if s == 1 {
		p := make([]int, 2)
		p[0] = (d + 1) / 2
		p[1] = d / 2
		yield(p)
		return
	}
	for base := 0; base <= d; base++ {
		for j := 0; j <= s-2; j++ {
			middle := (s-1)*base + j
			if middle > d {
				continue
			}
			p := make([]int, s+1)
			for i := 1; i < s; i++ {
				if i-1 < j {
					p[i] = base + 1
				} else {
					p[i] = base
				}
			}
			rest := d - middle
			p[0] = (rest + 1) / 2
			p[s] = rest / 2
			yield(p)
		}
	}
}

// bestShapeFor returns the segment shape minimizing g(L, p) for the given L,
// or ok=false if no shape exists (cannot happen for L >= s >= 1).
func bestShapeFor(l, s int) (p []int, g int, ok bool) {
	g = math.MaxInt32
	segmentCombos(l, s, func(cand []int) {
		if cg := GUpper(cand); cg < g {
			g = cg
			p = cand
		}
	})
	return p, g, g != math.MaxInt32
}

// PlanBudget implements Algorithm 1: binary search for the largest L in
// [s, K] whose best segment shape keeps g(L, p) <= K, returning that L_max
// and the optimal shape. It requires 1 <= s <= K.
//
// Runtime is O(s^2 K log K) as stated in Section III-D: O(log K) guesses,
// each enumerating O(K) bases times O(s) js with an O(s) evaluation.
func PlanBudget(k, s int) (Budget, error) {
	if s < 1 {
		return Budget{}, fmt.Errorf("core: anchor count s = %d must be at least 1", s)
	}
	if s > k {
		return Budget{}, fmt.Errorf("core: anchor count s = %d exceeds UAV count K = %d", s, k)
	}
	// L = s is always feasible: all p_i = 0, g = s <= K.
	best := Budget{S: s, LMax: s, P: make([]int, s+1), G: s}

	lb, ub := s, k
	// Check the upper endpoint first so the binary search's half-open
	// invariant (lb feasible, ub infeasible-or-boundary) is clean.
	if p, g, ok := bestShapeFor(k, s); ok && g <= k {
		return Budget{S: s, LMax: k, P: p, G: g}, nil
	}
	for lb+1 < ub {
		l := (lb + ub) / 2
		p, g, ok := bestShapeFor(l, s)
		if ok && g <= k {
			lb = l
			best = Budget{S: s, LMax: l, P: p, G: g}
		} else {
			ub = l
		}
	}
	return best, nil
}

// L1 returns the analysis quantity of Theorem 1:
//
//	L_1 = floor(sqrt(4sK + 4s^2 - 8.5s)) - 2s + 2,
//
// a closed-form lower bound on the L_max found by Algorithm 1.
func L1(k, s int) int {
	v := 4*float64(s)*float64(k) + 4*float64(s)*float64(s) - 8.5*float64(s)
	if v < 0 {
		v = 0
	}
	return int(math.Floor(math.Sqrt(v))) - 2*s + 2
}

// ApproxRatio returns the approximation ratio of Theorem 1,
// 1 / (3 * ceil((2K-2)/L_1)) = O(sqrt(s/K)). It returns 0 if L_1 <= 0.
func ApproxRatio(k, s int) float64 {
	l1 := L1(k, s)
	if l1 <= 0 || k < 1 {
		return 0
	}
	delta := (2*k - 2 + l1 - 1) / l1
	if delta < 1 {
		delta = 1
	}
	return 1 / (3 * float64(delta))
}
