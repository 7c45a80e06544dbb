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

// subsetSource deterministically yields the anchor subset for an enumeration
// index. In exhaustive mode an index at most m past the previous one is
// reached by colex next-combination steps (O(s) amortized each) and only
// other accesses pay the unranking loop: a worker's claims ascend, in steps
// of one when it runs alone and of about the worker count when several
// share the cursor; in sampling mode
// every index reseeds the source's persistent RNG, so the subset depends
// only on (Seed, idx), never on which worker draws it. The slice returned by
// at is owned by the source and overwritten by the next call.
//
// Sampling draws each index's subset independently, i.e. WITH replacement
// across the MaxSubsets draws. Sampling without replacement would need
// either shared state across workers (destroying the index-determinism that
// makes results worker-count-independent) or an unranking of a uniform
// random index into a space as large as C(m, s), which overflows int64 for
// paper-scale m. A duplicated draw merely re-evaluates an identical subset
// to an identical result, so correctness is unaffected; the only cost is a
// small loss of sample diversity, negligible while MaxSubsets << C(m, s) —
// the regime the cap exists for.
type subsetSource struct {
	m, s    int
	sampled bool
	seed    int64
	cur     []int
	lastIdx int64
	// Sampling-mode state: a persistent reseeded RNG plus the partial
	// Fisher-Yates scratch (identity permutation and swap journal).
	rng   *rand.Rand
	perm  []int
	swaps []int
}

// subsetSpace returns the number of enumeration indices for the given
// options and whether they index random samples rather than the full colex
// enumeration.
func subsetSpace(m, s int, opts Options) (total int64, sampled bool) {
	total = binomial(m, s)
	if opts.MaxSubsets > 0 && int64(opts.MaxSubsets) < total {
		return int64(opts.MaxSubsets), true
	}
	return total, false
}

func newSubsetSource(m, s int, opts Options, sampled bool) *subsetSource {
	src := &subsetSource{m: m, s: s, sampled: sampled, seed: opts.Seed, cur: make([]int, s), lastIdx: -1}
	if sampled {
		src.rng = rand.New(rand.NewSource(opts.Seed))
		src.perm = make([]int, m)
		for i := range src.perm {
			src.perm[i] = i
		}
		src.swaps = make([]int, s)
	}
	return src
}

// at returns the anchor subset for enumeration index idx.
func (src *subsetSource) at(idx int64) ([]int, error) {
	if src.sampled {
		// Reseed per index: the draw is a pure function of (Seed, idx), so
		// the result is identical no matter which worker evaluates idx.
		src.rng.Seed(src.seed + idx*2654435761)
		return sampleCombination(src.rng, src.perm, src.swaps, src.cur), nil
	}
	// A short step forward — the next claim of a worker that shares the
	// cursor with a few others — costs less than unranking.
	if gap := idx - src.lastIdx; src.lastIdx >= 0 && gap > 0 && gap <= int64(src.m) {
		for ; gap > 0; gap-- {
			if !nextCombination(src.cur, src.m) {
				return nil, fmt.Errorf("core: combination index %d out of range for C(%d,%d)", idx, src.m, src.s)
			}
		}
	} else if err := unrankCombinationInto(idx, src.m, src.s, src.cur); err != nil {
		return nil, err
	}
	src.lastIdx = idx
	return src.cur, nil
}
