package match

import "math/bits"

// Bitset is a fixed-capacity bit vector over user indices. The matcher keeps
// the unserved-user set and the alternating-reachability set as Bitsets so
// the dynamic gain bound of the lazy greedy reduces to a handful of popcounts
// over precomputed eligibility masks.
type Bitset []uint64

// NewBitset returns a bitset able to hold bits 0..n-1, all clear.
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// BitsetFromSorted returns a bitset over n bits with exactly the bits in
// elems set. elems must be ascending, duplicate-free indices in [0, n) —
// the invariant Instance.Eligible lists guarantee.
func BitsetFromSorted(n int, elems []int) Bitset {
	b := NewBitset(n)
	for _, e := range elems {
		b[e>>6] |= 1 << (uint(e) & 63)
	}
	return b
}

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bitset) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Fill sets bits 0..n-1 and clears the rest of the last word.
func (b Bitset) Fill(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if tail := uint(n) & 63; tail != 0 && len(b) > 0 {
		b[len(b)-1] = (1 << tail) - 1
	}
}

// CopyFrom overwrites b with src; both must have the same length.
func (b Bitset) CopyFrom(src Bitset) { copy(b, src) }

// Or sets b to a ∪ b in place; both must have the same length. The GRASP
// constructor accumulates the eligibility union of a growing anchor set this
// way, scoring candidate cells by marginal coverage in a few word operations.
func (b Bitset) Or(a Bitset) {
	for i, w := range a {
		b[i] |= w
	}
}

// AndNotCount returns |a \ b|, the popcount of a AND NOT b — the marginal
// coverage a candidate's eligibility mask adds over an accumulated union.
func AndNotCount(a, b Bitset) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w &^ b[i])
	}
	return n
}

// AndCount returns |a ∩ b|, the popcount of the bitwise AND.
func AndCount(a, b Bitset) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// AndWeightSum returns the sum of w[i] over the indices i in a ∩ b, the
// weighted generalization of AndCount the WeightedMatcher's gain bound uses.
func AndWeightSum(a, b Bitset, w []int) int {
	total := 0
	for i, word := range a {
		x := word & b[i]
		for x != 0 {
			total += w[i*64+bits.TrailingZeros64(x)]
			x &= x - 1
		}
	}
	return total
}
