package matroid

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// --- matroid-axiom oracle ---------------------------------------------------

// checkAxioms exhaustively verifies the three matroid axioms on the ground
// set 0..n-1 (n must be small).
func checkAxioms(t *testing.T, m Matroid, n int) {
	t.Helper()
	if n > 16 {
		t.Fatalf("checkAxioms: ground set %d too large", n)
	}
	// Enumerate all subsets as bitmasks.
	toSet := func(mask int) []int {
		var s []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, i)
			}
		}
		return s
	}
	indep := make([]bool, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		indep[mask] = m.Independent(toSet(mask))
	}
	if !indep[0] {
		t.Error("axiom (i): empty set must be independent")
	}
	for mask := 0; mask < 1<<n; mask++ {
		if !indep[mask] {
			continue
		}
		// Hereditary: all subsets of an independent set are independent.
		for sub := mask; sub > 0; sub = (sub - 1) & mask {
			if !indep[sub] {
				t.Errorf("axiom (ii): %b independent but subset %b is not", mask, sub)
			}
		}
		// Augmentation against every smaller independent set.
		for other := 0; other < 1<<n; other++ {
			if !indep[other] || popcount(other) >= popcount(mask) {
				continue
			}
			found := false
			for i := 0; i < n; i++ {
				bit := 1 << i
				if mask&bit != 0 && other&bit == 0 && indep[other|bit] {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("axiom (iii): cannot augment %b from %b", other, mask)
			}
		}
	}
	// CanAdd must agree with Independent on singletons-over-independent-sets.
	for mask := 0; mask < 1<<n; mask++ {
		if !indep[mask] {
			continue
		}
		for i := 0; i < n; i++ {
			bit := 1 << i
			if mask&bit != 0 {
				continue
			}
			if got, want := m.CanAdd(toSet(mask), i), indep[mask|bit]; got != want {
				t.Errorf("CanAdd(%b, %d) = %v, want %v", mask, i, got, want)
			}
		}
	}
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

func TestPartitionMatroidAxioms(t *testing.T) {
	tests := []struct {
		name string
		m    Partition
		n    int
	}{
		{"uniform-cap1", Partition{Part: []int{0, 0, 0, 0}, Cap: []int{1}}, 4},
		{"two-parts", Partition{Part: []int{0, 0, 1, 1, 1}, Cap: []int{1, 2}}, 5},
		{"zero-cap", Partition{Part: []int{0, 1, 1}, Cap: []int{0, 2}}, 3},
		{"uav-placement", NewUAVPlacementMatroid(2, 3), 6},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			checkAxioms(t, tc.m, tc.n)
		})
	}
}

func TestHopCountMatroidAxioms(t *testing.T) {
	tests := []struct {
		name string
		m    HopCount
	}{
		{"paper-fig2d", HopCount{
			// Fig. 2(d): Q0=10 nodes total, Q1=7, Q2=1 with s=3 anchors.
			// Small instance: distances 0,0,1,1,2 with Q = [5,3,1].
			Dist: []int{0, 0, 1, 1, 2},
			Q:    []int{5, 3, 1},
		}},
		{"tight-total", HopCount{Dist: []int{0, 1, 1, 2}, Q: []int{2, 2, 1}}},
		{"with-unreachable", HopCount{Dist: []int{0, Unreachable, 1, 3}, Q: []int{3, 2}}},
		{"all-zero", HopCount{Dist: []int{0, 0, 0}, Q: []int{2}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			checkAxioms(t, tc.m, len(tc.m.Dist))
		})
	}
}

func TestHopCountMatroidAxiomsRandomProperty(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		size := 3 + r.Intn(5)
		hmax := 1 + r.Intn(3)
		m := HopCount{Dist: make([]int, size), Q: make([]int, hmax+1)}
		for i := range m.Dist {
			m.Dist[i] = r.Intn(hmax + 2) // may exceed hmax -> loop elements
			if r.Intn(6) == 0 {
				m.Dist[i] = Unreachable
			}
		}
		m.Q[0] = 1 + r.Intn(size)
		for h := 1; h <= hmax; h++ {
			q := m.Q[h-1] - r.Intn(2)
			if q < 0 {
				q = 0
			}
			m.Q[h] = q
		}
		checkAxioms(t, m, size)
	}
}

func TestHopCountRejectsBeyondHmaxAndUnreachable(t *testing.T) {
	m := HopCount{Dist: []int{0, 2, Unreachable}, Q: []int{3, 1}}
	if m.Independent([]int{1}) {
		t.Error("element beyond hmax accepted")
	}
	if m.Independent([]int{2}) {
		t.Error("unreachable element accepted")
	}
	if m.CanAdd(nil, 1) || m.CanAdd(nil, 2) {
		t.Error("CanAdd accepted invalid elements")
	}
	if m.CanAdd(nil, -1) || m.CanAdd(nil, 99) {
		t.Error("CanAdd accepted out-of-range elements")
	}
}

func TestIntersection(t *testing.T) {
	p := Partition{Part: []int{0, 0, 1}, Cap: []int{1, 1}}
	h := HopCount{Dist: []int{0, 1, 1}, Q: []int{2, 1}}
	in := Intersection{p, h}
	if !in.Independent([]int{0, 2}) {
		t.Error("{0,2} should be independent in both")
	}
	// {0,1} violates the partition matroid (same part).
	if in.Independent([]int{0, 1}) {
		t.Error("{0,1} should violate M1")
	}
	// {1,2} violates the hop matroid (two elements at distance >= 1, Q1=1).
	if in.Independent([]int{1, 2}) {
		t.Error("{1,2} should violate M2")
	}
	if in.CanAdd([]int{0}, 1) {
		t.Error("CanAdd(0->1) should fail the partition constraint")
	}
	if !in.CanAdd([]int{0}, 2) {
		t.Error("CanAdd(0->2) should succeed")
	}
}

// --- greedy -----------------------------------------------------------------

// coverOracle is a weighted-coverage objective: each element covers a set of
// items; the gain of an element is the number of still-uncovered items it
// covers. Monotone submodular by construction.
type coverOracle struct {
	covers  [][]int
	covered map[int]bool
}

func newCoverOracle(covers [][]int) *coverOracle {
	return &coverOracle{covers: covers, covered: map[int]bool{}}
}

func (o *coverOracle) Gain(_, e int) (int, error) {
	g := 0
	for _, item := range o.covers[e] {
		if !o.covered[item] {
			g++
		}
	}
	return g, nil
}

func (o *coverOracle) Commit(_, e int) (int, error) {
	g := 0
	for _, item := range o.covers[e] {
		if !o.covered[item] {
			o.covered[item] = true
			g++
		}
	}
	return g, nil
}

func unconstrained(_ []int, _ int) bool { return true }

func TestLazyGreedyCoverage(t *testing.T) {
	covers := [][]int{
		{1, 2, 3},
		{3, 4},
		{5},
		{1, 2, 3, 4},
	}
	sel, err := lazyGreedy([]int{0, 1, 2, 3}, 2, unconstrained, newCoverOracle(covers))
	if err != nil {
		t.Fatal(err)
	}
	// Element 3 covers 4 items; then element 2 adds item 5 (elements 0,1 add
	// nothing new... element 0 adds 0, element 1 adds 0, element 2 adds 1).
	if len(sel) != 2 || sel[0] != 3 || sel[1] != 2 {
		t.Errorf("selection = %v, want [3 2]", sel)
	}
}

func TestLazyGreedyRespectsMatroids(t *testing.T) {
	covers := [][]int{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	p := Partition{Part: []int{0, 0, 1, 1}, Cap: []int{1, 1}}
	in := Intersection{p}
	sel, err := lazyGreedy([]int{0, 1, 2, 3}, 4, in.CanAdd, newCoverOracle(covers))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selection = %v, want 2 elements (one per part)", sel)
	}
	if !in.Independent(sel) {
		t.Errorf("selection %v violates matroid", sel)
	}
}

func TestLazyGreedyNegativeRounds(t *testing.T) {
	if _, err := lazyGreedy(nil, -1, unconstrained, newCoverOracle(nil)); err == nil {
		t.Error("negative rounds should fail")
	}
}

func TestLazyGreedyEmptyGround(t *testing.T) {
	sel, err := lazyGreedy(nil, 3, unconstrained, newCoverOracle(nil))
	if err != nil || len(sel) != 0 {
		t.Errorf("sel=%v err=%v", sel, err)
	}
}

func TestLazyGreedyMatchesNaiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 80; trial++ {
		nElems := 2 + r.Intn(10)
		nItems := 1 + r.Intn(15)
		covers := make([][]int, nElems)
		for e := range covers {
			for it := 0; it < nItems; it++ {
				if r.Intn(3) == 0 {
					covers[e] = append(covers[e], it)
				}
			}
		}
		// Random partition matroid + hop matroid constraints.
		part := make([]int, nElems)
		nParts := 1 + r.Intn(3)
		for i := range part {
			part[i] = r.Intn(nParts)
		}
		caps := make([]int, nParts)
		for i := range caps {
			caps[i] = 1 + r.Intn(2)
		}
		dist := make([]int, nElems)
		for i := range dist {
			dist[i] = r.Intn(3)
		}
		q := []int{2 + r.Intn(nElems), 1 + r.Intn(3), r.Intn(2)}
		in := Intersection{Partition{Part: part, Cap: caps}, HopCount{Dist: dist, Q: q}}

		ground := make([]int, nElems)
		for i := range ground {
			ground[i] = i
		}
		rounds := 1 + r.Intn(nElems)
		lazySel, err := lazyGreedy(ground, rounds, in.CanAdd, newCoverOracle(covers))
		if err != nil {
			t.Fatal(err)
		}
		naiveSel, err := NaiveGreedy(ground, rounds, in.CanAdd, newCoverOracle(covers))
		if err != nil {
			t.Fatal(err)
		}
		if len(lazySel) != len(naiveSel) {
			t.Fatalf("trial %d: lazy %v vs naive %v", trial, lazySel, naiveSel)
		}
		for i := range lazySel {
			if lazySel[i] != naiveSel[i] {
				t.Fatalf("trial %d: lazy %v vs naive %v", trial, lazySel, naiveSel)
			}
		}
		if !in.Independent(lazySel) {
			t.Fatalf("trial %d: selection %v violates constraints", trial, lazySel)
		}
	}
}

// TestGreedyApproximationBound verifies the Fisher-Nemhauser-Wolsey bound on
// random instances: greedy coverage under rho matroids is at least
// 1/(rho+1) of the best coverage among all independent sets.
func TestGreedyApproximationBoundProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		nElems := 2 + r.Intn(8)
		nItems := 1 + r.Intn(12)
		covers := make([][]int, nElems)
		for e := range covers {
			for it := 0; it < nItems; it++ {
				if r.Intn(3) == 0 {
					covers[e] = append(covers[e], it)
				}
			}
		}
		part := make([]int, nElems)
		for i := range part {
			part[i] = r.Intn(2)
		}
		p := Partition{Part: part, Cap: []int{1 + r.Intn(2), 1 + r.Intn(2)}}
		dist := make([]int, nElems)
		for i := range dist {
			dist[i] = r.Intn(2)
		}
		h := HopCount{Dist: dist, Q: []int{1 + r.Intn(nElems), 1 + r.Intn(2)}}
		in := Intersection{p, h}

		ground := make([]int, nElems)
		for i := range ground {
			ground[i] = i
		}
		sel, err := lazyGreedy(ground, nElems, in.CanAdd, newCoverOracle(covers))
		if err != nil {
			t.Fatal(err)
		}
		greedyVal := coverageOf(covers, sel)

		// Exhaustive best independent set.
		best := 0
		for mask := 0; mask < 1<<nElems; mask++ {
			var set []int
			for i := 0; i < nElems; i++ {
				if mask&(1<<i) != 0 {
					set = append(set, i)
				}
			}
			if !in.Independent(set) {
				continue
			}
			if v := coverageOf(covers, set); v > best {
				best = v
			}
		}
		// rho = 2 matroids -> bound 1/3.
		if 3*greedyVal < best {
			t.Fatalf("trial %d: greedy %d < OPT/3 (OPT=%d)", trial, greedyVal, best)
		}
	}
}

func coverageOf(covers [][]int, set []int) int {
	seen := map[int]bool{}
	for _, e := range set {
		for _, it := range covers[e] {
			seen[it] = true
		}
	}
	return len(seen)
}

// TestLazyRunnerMatchesLazyGreedy reuses one runner across many random
// instances and checks every selection against the allocating wrapper (and
// transitively, via TestLazyGreedyMatchesNaiveProperty, against NaiveGreedy).
func TestLazyRunnerMatchesLazyGreedy(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	var runner LazyRunner
	for trial := 0; trial < 80; trial++ {
		nElems := 2 + r.Intn(10)
		nItems := 1 + r.Intn(15)
		covers := make([][]int, nElems)
		for e := range covers {
			for it := 0; it < nItems; it++ {
				if r.Intn(3) == 0 {
					covers[e] = append(covers[e], it)
				}
			}
		}
		dist := make([]int, nElems)
		for i := range dist {
			dist[i] = r.Intn(3)
		}
		q := []int{2 + r.Intn(nElems), 1 + r.Intn(3), r.Intn(2)}
		in := Intersection{HopCount{Dist: dist, Q: q}}
		ground := make([]int, nElems)
		for i := range ground {
			ground[i] = i
		}
		rounds := 1 + r.Intn(nElems)
		want, err := lazyGreedy(ground, rounds, in.CanAdd, newCoverOracle(covers))
		if err != nil {
			t.Fatal(err)
		}
		got, err := runner.Run(ground, rounds, in.CanAdd, newCoverOracle(covers))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: runner %v vs wrapper %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: runner %v vs wrapper %v", trial, got, want)
			}
		}
	}
}

func TestLazyRunnerErrors(t *testing.T) {
	var runner LazyRunner
	if _, err := runner.Run(nil, -1, unconstrained, newCoverOracle(nil)); err == nil {
		t.Error("negative rounds should fail")
	}
	// A failed run must not poison the next one.
	sel, err := runner.Run([]int{0, 1}, 1, unconstrained, newCoverOracle([][]int{{1}, {2, 3}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0] != 1 {
		t.Errorf("selection after failed run = %v, want [1]", sel)
	}
}

// --- testing/quick properties (idiom shared with internal/geom) -------------

// maskToSet expands a subset bitmask over the ground set 0..n-1.
func maskToSet(mask, n int) []int {
	var s []int
	for i := 0; i < n; i++ {
		if mask&(1<<i) != 0 {
			s = append(s, i)
		}
	}
	return s
}

// randQuickMatroid builds a random Partition or HopCount matroid over a
// small ground set, returning the matroid and the ground-set size.
func randQuickMatroid(r *rand.Rand) (Matroid, int) {
	n := 3 + r.Intn(5)
	if r.Intn(2) == 0 {
		nparts := 1 + r.Intn(3)
		part := make([]int, n)
		for i := range part {
			part[i] = r.Intn(nparts)
		}
		caps := make([]int, nparts)
		for i := range caps {
			caps[i] = r.Intn(3)
		}
		return Partition{Part: part, Cap: caps}, n
	}
	hmax := 1 + r.Intn(3)
	m := HopCount{Dist: make([]int, n), Q: make([]int, hmax+1)}
	for i := range m.Dist {
		m.Dist[i] = r.Intn(hmax + 2)
		if r.Intn(6) == 0 {
			m.Dist[i] = Unreachable
		}
	}
	m.Q[0] = 1 + r.Intn(n)
	for h := 1; h <= hmax; h++ {
		q := m.Q[h-1] - r.Intn(2)
		if q < 0 {
			q = 0
		}
		m.Q[h] = q
	}
	return m, n
}

// TestHereditaryQuickProperty is axiom (ii) as a quick property: every
// subset of an independent set stays independent, for randomly shaped
// partition and hop-count matroids.
func TestHereditaryQuickProperty(t *testing.T) {
	f := func(seed int64, maskRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := randQuickMatroid(r)
		mask := int(maskRaw) % (1 << n)
		if !m.Independent(maskToSet(mask, n)) {
			return true // vacuous: property only constrains independent sets
		}
		for sub := mask; sub > 0; sub = (sub - 1) & mask {
			if !m.Independent(maskToSet(sub, n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestExchangeQuickProperty is axiom (iii) as a quick property: when A and B
// are independent with |A| < |B|, some element of B\A extends A.
func TestExchangeQuickProperty(t *testing.T) {
	f := func(seed int64, aRaw, bRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := randQuickMatroid(r)
		a, b := int(aRaw)%(1<<n), int(bRaw)%(1<<n)
		if !m.Independent(maskToSet(a, n)) || !m.Independent(maskToSet(b, n)) {
			return true
		}
		if popcount(a) >= popcount(b) {
			return true
		}
		for i := 0; i < n; i++ {
			bit := 1 << i
			if b&bit != 0 && a&bit == 0 && m.Independent(maskToSet(a|bit, n)) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Matroid is an independence system over ground-set elements 0..N-1. All
// implementations in this package satisfy the matroid axioms (non-empty,
// hereditary, augmentation); the test suite verifies this exhaustively on
// small instances.
type Matroid interface {
	// Independent reports whether the given element set is independent.
	// Elements may appear in any order; duplicates are the caller's bug.
	Independent(set []int) bool
	// CanAdd reports whether set + {e} is independent, assuming set already
	// is. Implementations may exploit the assumption for speed.
	CanAdd(set []int, e int) bool
}

// Partition is a partition matroid: ground elements are labeled with a part,
// and an independent set contains at most Cap[p] elements of part p.
//
// M1 of Section III-B is the instance where element <k, v_j> has part k
// (the UAV index) and every capacity is 1: a UAV flies to at most one
// location.
type Partition struct {
	// Part[e] is the part label of element e, in [0, len(Cap)).
	Part []int
	// Cap[p] is the maximum number of elements of part p in an independent set.
	Cap []int
}

// NewUAVPlacementMatroid returns M1 for k UAVs and m candidate locations:
// element index e = uav*m + loc, part = uav, capacity 1 per UAV.
func NewUAVPlacementMatroid(k, m int) Partition {
	part := make([]int, k*m)
	capacities := make([]int, k)
	for uav := 0; uav < k; uav++ {
		capacities[uav] = 1
		for loc := 0; loc < m; loc++ {
			part[uav*m+loc] = uav
		}
	}
	return Partition{Part: part, Cap: capacities}
}

// Independent implements Matroid.
func (p Partition) Independent(set []int) bool {
	counts := make(map[int]int)
	for _, e := range set {
		if e < 0 || e >= len(p.Part) {
			return false
		}
		pt := p.Part[e]
		counts[pt]++
		if counts[pt] > p.Cap[pt] {
			return false
		}
	}
	return true
}

// CanAdd implements Matroid.
func (p Partition) CanAdd(set []int, e int) bool {
	if e < 0 || e >= len(p.Part) {
		return false
	}
	pt := p.Part[e]
	count := 1
	for _, x := range set {
		if p.Part[x] == pt {
			count++
			if count > p.Cap[pt] {
				return false
			}
		}
	}
	return count <= p.Cap[pt]
}

// Intersection bundles several matroids; a set is feasible if independent in
// every one. The intersection of rho matroids is what the greedy's
// 1/(rho+1) guarantee is stated against.
type Intersection []Matroid

// Independent reports independence in every member matroid.
func (in Intersection) Independent(set []int) bool {
	for _, m := range in {
		if !m.Independent(set) {
			return false
		}
	}
	return true
}

// CanAdd reports addability in every member matroid.
func (in Intersection) CanAdd(set []int, e int) bool {
	for _, m := range in {
		if !m.CanAdd(set, e) {
			return false
		}
	}
	return true
}

// NaiveGreedy is the reference implementation of the same selection rule
// without lazy evaluation; used by tests to validate LazyGreedy and by
// callers that prefer simplicity over speed.
func NaiveGreedy(ground []int, rounds int, feasible func(selected []int, e int) bool, o Oracle) ([]int, error) {
	if rounds < 0 {
		return nil, fmt.Errorf("matroid: negative round count %d", rounds)
	}
	var selected []int
	inSelected := make(map[int]bool)
	for round := 0; round < rounds; round++ {
		best, bestGain := -1, -1
		for _, e := range ground {
			if inSelected[e] || !feasible(selected, e) {
				continue
			}
			g, err := o.Gain(round, e)
			if err != nil {
				return nil, fmt.Errorf("matroid: gain(%d, %d): %w", round, e, err)
			}
			if g > bestGain || (g == bestGain && best != -1 && e < best) {
				best, bestGain = e, g
			}
		}
		if best == -1 {
			break
		}
		if _, err := o.Commit(round, best); err != nil {
			return nil, fmt.Errorf("matroid: commit(%d, %d): %w", round, best, err)
		}
		selected = append(selected, best)
		inSelected[best] = true
	}
	return selected, nil
}

// lazyGreedy runs one lazy-greedy selection on a fresh runner.
func lazyGreedy(ground []int, rounds int, feasible func(selected []int, e int) bool, o Oracle) ([]int, error) {
	return new(LazyRunner).Run(ground, rounds, feasible, o)
}

// CanAdd implements Matroid.
func (m HopCount) CanAdd(set []int, e int) bool {
	return m.CanAddInto(set, e, make([]int, len(m.Q)))
}
