package core

// Combination enumeration for the anchor-subset search. Everything in this
// file is a pure function of (m, s, index) — unranking, colex stepping — or
// of (seed, index) for sampling, where sampleCombination's caller reseeds
// the RNG per index. That purity is a load-bearing property of the
// run-control layer: a Checkpoint records only a cursor (and Options.Seed),
// never RNG internals, because replaying any index from scratch yields the
// same subset no matter which worker or resumed run asks for it.

import (
	"fmt"
	"math/rand"
	"sort"
)

// binomial returns C(m, s), saturating at MaxInt64 on overflow.
func binomial(m, s int) int64 {
	if s < 0 || s > m {
		return 0
	}
	if s > m-s {
		s = m - s
	}
	result := int64(1)
	for i := 1; i <= s; i++ {
		// result *= (m - s + i) / i, guarding overflow.
		next := result * int64(m-s+i)
		if next/int64(m-s+i) != result {
			return int64(^uint64(0) >> 1)
		}
		result = next / int64(i)
	}
	return result
}

// unrankCombinationInto is unrankCombination writing into a caller-provided
// slice of length s, allocating nothing.
func unrankCombinationInto(idx int64, m, s int, out []int) error {
	if idx < 0 || idx >= binomial(m, s) {
		return fmt.Errorf("core: combination index %d out of range for C(%d,%d)", idx, m, s)
	}
	for i := s; i >= 1; i-- {
		// Largest c with C(c, i) <= idx.
		c := i - 1
		for binomial(c+1, i) <= idx {
			c++
		}
		out[i-1] = c
		idx -= binomial(c, i)
	}
	return nil
}

// nextCombination advances c, a sorted s-combination of {0..m-1}, to its
// colexicographic successor in place — the same order unrankCombination
// enumerates, so stepping from unrank(i) yields unrank(i+1) without the
// O(s log m) unranking work or its allocation. It reports false, leaving c
// unchanged, when c is the last combination {m-s..m-1}.
func nextCombination(c []int, m int) bool {
	s := len(c)
	for i := 0; i < s; i++ {
		limit := m
		if i+1 < s {
			limit = c[i+1]
		}
		if c[i]+1 < limit {
			c[i]++
			for j := 0; j < i; j++ {
				c[j] = j
			}
			return true
		}
	}
	return false
}

// sampleCombination draws a uniform s-subset of {0..m-1} into out (length s)
// via a partial Fisher-Yates shuffle over the scratch identity permutation
// perm (length m): only the first s positions are shuffled — s calls to
// r.Intn instead of the m-1 a full r.Perm(m) costs — and the swaps, recorded
// in swaps (length s), are undone afterwards so perm remains the identity
// for the next draw. The result is sorted. Allocation-free.
func sampleCombination(r *rand.Rand, perm, swaps, out []int) []int {
	s := len(out)
	m := len(perm)
	for i := 0; i < s; i++ {
		j := i + r.Intn(m-i)
		swaps[i] = j
		perm[i], perm[j] = perm[j], perm[i]
	}
	copy(out, perm[:s])
	for i := s - 1; i >= 0; i-- {
		j := swaps[i]
		perm[i], perm[j] = perm[j], perm[i]
	}
	sort.Ints(out)
	return out
}
