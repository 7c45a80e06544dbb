package portfolio

import (
	"testing"

	"github.com/uav-coverage/uavnet/internal/core"
)

// FuzzNeighborMove asserts the neighborhood's core invariant: starting from
// an admissible anchor subset, any chain of proposed moves stays inside the
// admissible region (sorted distinct cells, one location-graph component,
// pairwise maxHop+1 <= K), and the crossover repair operator never returns
// an inadmissible set — the "moves never leave the matroid-feasible region"
// property the evaluator's q_j <= K check relies on.
func FuzzNeighborMove(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(32))
	}
	f.Fuzz(func(t *testing.T, seed int64, nMoves uint8) {
		in := testInstance(t, 1+(seed%64+64)%64)
		s := 2
		if k := in.Scenario.K(); s > k {
			s = k
		}
		p, err := newProblem(in, s)
		if err != nil {
			t.Skip("no admissible component in this instance")
		}
		ev, err := core.NewSubsetEvaluator(in, core.Options{S: s})
		if err != nil {
			t.Fatal(err)
		}
		sr := newSearch("anneal", p, ev, seed, int64(nMoves)+1)

		a := p.seedSubset(int((uint64(seed) % uint64(p.m))))
		if a == nil {
			t.Skip("no admissible seed subset")
		}
		if !p.admissible(a) {
			t.Fatalf("seed subset %v not admissible", a)
		}
		cur := append([]int(nil), a...)
		for i := 0; i < int(nMoves); i++ {
			mv := sr.proposeFrom(cur)
			if mv == nil {
				continue
			}
			if !p.admissible(mv) {
				t.Fatalf("move %d: %v -> %v left the admissible region", i, cur, mv)
			}
			if mv[0] < 0 || mv[len(mv)-1] >= p.m {
				t.Fatalf("move %d: %v out of cell range", i, mv)
			}
			cur = append(cur[:0], mv...)
		}

		// Crossover repair: the union of two admissible sets — and arbitrary
		// junk, including out-of-range cells — repairs to admissible or nil.
		b := p.seedSubset(int((uint64(seed+1) % uint64(p.m))))
		union := append(append([]int(nil), cur...), b...)
		if rep := p.repair(union, int(uint64(nMoves))%p.m); rep != nil && !p.admissible(rep) {
			t.Fatalf("repair(%v) = %v not admissible", union, rep)
		}
		junk := []int{-1, p.m, int(uint64(seed) % uint64(p.m)), 0, 0}
		if rep := p.repair(junk, 0); rep != nil && !p.admissible(rep) {
			t.Fatalf("repair(%v) = %v not admissible", junk, rep)
		}
	})
}
