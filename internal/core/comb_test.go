package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// referenceCombinations enumerates all s-combinations of {0..m-1} in
// colexicographic order by brute force: generate every sorted s-subset and
// order it by the colex rule (compare largest differing element).
func referenceCombinations(m, s int) [][]int {
	var all [][]int
	cur := make([]int, s)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == s {
			all = append(all, append([]int(nil), cur...))
			return
		}
		for v := start; v < m; v++ {
			cur[pos] = v
			rec(pos+1, v+1)
		}
	}
	rec(0, 0)
	// Colex order: sort by reversed-sequence comparison.
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if colexLess(all[j], all[i]) {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	return all
}

func colexLess(a, b []int) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestUnrankCombinationMatchesReference checks, for every small (m, s), that
// unranking index i yields the i-th combination of the reference colex
// enumeration — the round trip the parallel workers rely on.
func TestUnrankCombinationMatchesReference(t *testing.T) {
	t.Parallel()
	for m := 1; m <= 8; m++ {
		for s := 1; s <= m; s++ {
			ref := referenceCombinations(m, s)
			if int64(len(ref)) != binomial(m, s) {
				t.Fatalf("reference enumeration of C(%d,%d) has %d entries, want %d",
					m, s, len(ref), binomial(m, s))
			}
			for i, want := range ref {
				got, err := unrankCombination(int64(i), m, s)
				if err != nil {
					t.Fatalf("unrank(%d, %d, %d): %v", i, m, s, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("unrank(%d, %d, %d) = %v, want %v", i, m, s, got, want)
				}
			}
		}
	}
}

func TestUnrankCombinationOutOfRange(t *testing.T) {
	t.Parallel()
	cases := []struct {
		idx  int64
		m, s int
	}{
		{-1, 5, 2},
		{10, 5, 2},  // C(5,2) = 10
		{1, 3, 4},   // C(3,4) = 0
		{0, 0, 1},   // empty ground set
		{100, 6, 3}, // C(6,3) = 20
	}
	for _, c := range cases {
		if _, err := unrankCombination(c.idx, c.m, c.s); err == nil {
			t.Errorf("unrank(%d, %d, %d): expected out-of-range error", c.idx, c.m, c.s)
		}
	}
}

// TestNextCombinationAgreesWithUnrank steps the incremental colex successor
// across full ranges and checks every step against unrankCombination, then
// checks that the last combination reports exhaustion.
func TestNextCombinationAgreesWithUnrank(t *testing.T) {
	t.Parallel()
	for m := 1; m <= 9; m++ {
		for s := 1; s <= m; s++ {
			total := binomial(m, s)
			cur, err := unrankCombination(0, m, s)
			if err != nil {
				t.Fatal(err)
			}
			for idx := int64(1); idx < total; idx++ {
				if !nextCombination(cur, m) {
					t.Fatalf("m=%d s=%d: premature exhaustion at index %d of %d", m, s, idx, total)
				}
				want, err := unrankCombination(idx, m, s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cur, want) {
					t.Fatalf("m=%d s=%d: step to index %d = %v, want %v", m, s, idx, cur, want)
				}
			}
			if nextCombination(cur, m) {
				t.Errorf("m=%d s=%d: successor past the last combination %v", m, s, cur)
			}
		}
	}
}

// TestSubsetSourceRandomAccessMatchesStepping exercises the worker access
// pattern: chunked ranges claimed out of order, stepping inside each chunk,
// and checks every yielded subset against direct unranking.
func TestSubsetSourceRandomAccessMatchesStepping(t *testing.T) {
	t.Parallel()
	const m, s, chunk = 9, 3, 5
	src := newSubsetSource(m, s, Options{}, false)
	total := binomial(m, s)
	var chunks []int64
	for lo := int64(0); lo < total; lo += chunk {
		chunks = append(chunks, lo)
	}
	r := rand.New(rand.NewSource(3))
	r.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	for _, lo := range chunks {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		for idx := lo; idx < hi; idx++ {
			got, err := src.at(idx)
			if err != nil {
				t.Fatalf("at(%d): %v", idx, err)
			}
			want, err := unrankCombination(idx, m, s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("at(%d) = %v, want %v", idx, got, want)
			}
		}
	}
}

// TestSampleCombination checks the partial Fisher-Yates draw: sorted valid
// subsets, the identity permutation restored after every draw, agreement
// with the allocating randomCombination on the same stream, and
// (index, seed)-determinism regardless of draw order.
func TestSampleCombination(t *testing.T) {
	t.Parallel()
	const m, s = 12, 4
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	swaps := make([]int, s)
	out := make([]int, s)
	for trial := 0; trial < 200; trial++ {
		seed := int64(trial)
		got := append([]int(nil), sampleCombination(rand.New(rand.NewSource(seed)), perm, swaps, out)...)
		for i := range perm {
			if perm[i] != i {
				t.Fatalf("trial %d: scratch permutation not restored: %v", trial, perm)
			}
		}
		for i := 0; i < s; i++ {
			if got[i] < 0 || got[i] >= m {
				t.Fatalf("trial %d: element %d out of range", trial, got[i])
			}
			if i > 0 && got[i-1] >= got[i] {
				t.Fatalf("trial %d: result not strictly sorted: %v", trial, got)
			}
		}
		want := randomCombination(rand.New(rand.NewSource(seed)), m, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: scratch draw %v != allocating draw %v", trial, got, want)
		}
	}
}

// TestSubsetSourceSamplingWorkerIndependent draws the same indices from two
// sources in different orders and expects identical subsets: the property
// that makes sampled runs deterministic across worker counts.
func TestSubsetSourceSamplingWorkerIndependent(t *testing.T) {
	t.Parallel()
	opts := Options{MaxSubsets: 30, Seed: 7}
	a := newSubsetSource(10, 3, opts, true)
	b := newSubsetSource(10, 3, opts, true)
	forward := make([][]int, 30)
	for idx := int64(0); idx < 30; idx++ {
		sub, err := a.at(idx)
		if err != nil {
			t.Fatal(err)
		}
		forward[idx] = append([]int(nil), sub...)
	}
	for idx := int64(29); idx >= 0; idx-- {
		sub, err := b.at(idx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sub, forward[idx]) {
			t.Fatalf("index %d: reverse-order draw %v != forward-order draw %v", idx, sub, forward[idx])
		}
	}
}

// unrankCombination returns the idx-th s-combination of {0..m-1} in
// colexicographic order: the combination whose elements c_1 < ... < c_s
// satisfy idx = sum C(c_i, i).
func unrankCombination(idx int64, m, s int) ([]int, error) {
	out := make([]int, s)
	if err := unrankCombinationInto(idx, m, s, out); err != nil {
		return nil, err
	}
	return out, nil
}

// randomCombination draws a uniform s-subset of {0..m-1} and returns it
// sorted: the allocating counterpart of sampleCombination.
func randomCombination(r *rand.Rand, m, s int) []int {
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	return sampleCombination(r, perm, make([]int, s), make([]int, s))
}
