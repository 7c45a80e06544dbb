package match

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestBitsetOrCountAndNotCount cross-checks the word-level operations against
// a naive map-of-bits model, across word boundaries (size 130 spans three
// words, the last partially filled).
func TestBitsetOrCountAndNotCount(t *testing.T) {
	t.Parallel()
	const n = 130
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a, b := NewBitset(n), NewBitset(n)
		inA, inB := map[int]bool{}, map[int]bool{}
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				a.Set(i)
				inA[i] = true
			}
			if r.Intn(3) == 0 {
				b.Set(i)
				inB[i] = true
			}
		}
		if got := a.Count(); got != len(inA) {
			t.Fatalf("trial %d: a.Count() = %d, want %d", trial, got, len(inA))
		}
		wantDiff := 0
		for i := range inA {
			if !inB[i] {
				wantDiff++
			}
		}
		if got := AndNotCount(a, b); got != wantDiff {
			t.Fatalf("trial %d: AndNotCount = %d, want %d", trial, got, wantDiff)
		}
		union := NewBitset(n)
		union.CopyFrom(b)
		union.Or(a)
		for i := 0; i < n; i++ {
			if union.Has(i) != (inA[i] || inB[i]) {
				t.Fatalf("trial %d: union bit %d = %v", trial, i, union.Has(i))
			}
		}
		// |a ∪ b| = |b| + |a \ b|: Or and AndNotCount must agree.
		if got := union.Count(); got != len(inB)+wantDiff {
			t.Fatalf("trial %d: union.Count() = %d, want %d", trial, got, len(inB)+wantDiff)
		}
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
