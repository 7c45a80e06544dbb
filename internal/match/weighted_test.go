package match

import (
	"math/rand"
	"testing"
)

// wproblem is a weighted instance: node weights, station capacities, sorted
// eligibility lists over the nodes.
type wproblem struct {
	weights []int
	caps    []int
	elig    [][]int
}

// expand turns a weighted instance into the equivalent unit instance: node u
// becomes weights[u] consecutive unit users with identical eligibility. The
// expansion preserves maximum b-matching values exactly, which is what makes
// the unit Matcher the reference oracle for the WeightedMatcher.
func (p wproblem) expand() (problem, []int) {
	off := make([]int, len(p.weights)+1)
	for u, w := range p.weights {
		off[u+1] = off[u] + w
	}
	q := problem{numUsers: off[len(p.weights)], caps: p.caps}
	for _, el := range p.elig {
		var xel []int
		for _, u := range el {
			for i := off[u]; i < off[u+1]; i++ {
				xel = append(xel, i)
			}
		}
		q.elig = append(q.elig, xel)
	}
	return q, off
}

// randomWeighted draws a random weighted instance. paperScale selects node
// counts, weights and capacities in the ballpark of the paper's evaluation
// (capacities in [50, 300], cell weights up to 40); otherwise everything
// stays tiny so failures minimize.
func randomWeighted(r *rand.Rand, paperScale bool) wproblem {
	var p wproblem
	if paperScale {
		n := 40 + r.Intn(80)
		for u := 0; u < n; u++ {
			p.weights = append(p.weights, r.Intn(41))
		}
		k := 8 + r.Intn(12)
		for j := 0; j < k; j++ {
			p.caps = append(p.caps, 50+r.Intn(251))
			var el []int
			for u := 0; u < n; u++ {
				if r.Intn(3) == 0 {
					el = append(el, u)
				}
			}
			p.elig = append(p.elig, el)
		}
		return p
	}
	n := 1 + r.Intn(5)
	for u := 0; u < n; u++ {
		p.weights = append(p.weights, r.Intn(4))
	}
	k := 1 + r.Intn(4)
	for j := 0; j < k; j++ {
		p.caps = append(p.caps, r.Intn(7))
		var el []int
		for u := 0; u < n; u++ {
			if r.Intn(2) == 0 {
				el = append(el, u)
			}
		}
		p.elig = append(p.elig, el)
	}
	return p
}

// checkWeightedState re-derives the matcher's committed bookkeeping from the
// Flow accessor: per-station loads within capacity and consistent with
// Load/Served, per-node totals within the weight, flow only on eligible
// nodes, and the unserved bitset exactly the residual-demand set.
func checkWeightedState(t *testing.T, m *WeightedMatcher, p wproblem, stations int) {
	t.Helper()
	served := 0
	for k := 0; k < stations; k++ {
		load := 0
		eligible := make(map[int]bool, len(p.elig[k]))
		for _, u := range p.elig[k] {
			eligible[u] = true
		}
		for u := range p.weights {
			f := m.Flow(k, u)
			if f < 0 {
				t.Fatalf("Flow(%d,%d) = %d negative", k, u, f)
			}
			if f > 0 && !eligible[u] {
				t.Errorf("station %d holds %d units of ineligible node %d", k, f, u)
			}
			load += f
		}
		if load > p.caps[k] {
			t.Errorf("station %d over capacity: %d > %d", k, load, p.caps[k])
		}
		if load != m.Load(k) {
			t.Errorf("Load(%d) = %d, summed %d", k, m.Load(k), load)
		}
		served += load
	}
	if served != m.Served() {
		t.Errorf("Served() = %d but flows sum to %d", m.Served(), served)
	}
	for u, w := range p.weights {
		total := 0
		for k := 0; k < stations; k++ {
			total += m.Flow(k, u)
		}
		if total > w {
			t.Errorf("node %d absorbed %d units, weight %d", u, total, w)
		}
		if wantBit := total < w; m.unserved.Has(u) != wantBit {
			t.Errorf("node %d: unserved bit %v, residual %d", u, m.unserved.Has(u), w-total)
		}
	}
}

// TestWeightedStealChain is the weighted version of the alternating-chain
// case: all demand of the contested node moves in one bottleneck chain.
func TestWeightedStealChain(t *testing.T) {
	t.Parallel()
	m, err := NewWeightedMatcher([]int{2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Station 0 (cap 2, eligible {0,1}) absorbs node 0 fully (list order).
	if g, _ := m.Commit(2, []int{0, 1}); g != 2 {
		t.Fatalf("station 0 gain %d, want 2", g)
	}
	// A station eligible only for node 0 still gains 2: it steals both units
	// and station 0 re-acquires them from node 1.
	if g, err := m.Gain(2, []int{0}); err != nil || g != 2 {
		t.Fatalf("steal-chain Gain = %d err=%v, want 2", g, err)
	}
	if b := m.GainBound(2, BitsetFromSorted(2, []int{0})); b < 2 {
		t.Fatalf("GainBound = %d, must be >= the true gain 2", b)
	}
}

// TestWeightedEqualsUnitExhaustiveTiny sweeps every two-node, two-station
// configuration with weights and capacities up to 2 and asserts the weighted
// matcher reproduces the unit matcher on the expanded instance commit by
// commit.
func TestWeightedEqualsUnitExhaustiveTiny(t *testing.T) {
	t.Parallel()
	subsets := [][]int{nil, {0}, {1}, {0, 1}}
	for w0 := 0; w0 <= 2; w0++ {
		for w1 := 0; w1 <= 2; w1++ {
			for c0 := 0; c0 <= 2; c0++ {
				for c1 := 0; c1 <= 2; c1++ {
					for _, e0 := range subsets {
						for _, e1 := range subsets {
							p := wproblem{
								weights: []int{w0, w1},
								caps:    []int{c0, c1},
								elig:    [][]int{e0, e1},
							}
							assertWeightedEqualsUnit(t, p)
						}
					}
				}
			}
		}
	}
}

// assertWeightedEqualsUnit runs the weighted matcher on p and the unit
// matcher on its expansion, asserting equal Gain and Commit values at every
// step plus consistent internal state.
func assertWeightedEqualsUnit(t *testing.T, p wproblem) {
	t.Helper()
	q, _ := p.expand()
	wm, err := NewWeightedMatcher(p.weights, len(p.caps))
	if err != nil {
		t.Fatal(err)
	}
	um, err := NewMatcher(q.numUsers, len(q.caps))
	if err != nil {
		t.Fatal(err)
	}
	for j := range p.caps {
		gw, err := wm.Gain(p.caps[j], p.elig[j])
		if err != nil {
			t.Fatal(err)
		}
		gu, err := um.Gain(q.caps[j], q.elig[j])
		if err != nil {
			t.Fatal(err)
		}
		if gw != gu {
			t.Fatalf("station %d: weighted Gain %d != unit Gain %d (p=%+v)", j, gw, gu, p)
		}
		cw, err := wm.Commit(p.caps[j], p.elig[j])
		if err != nil {
			t.Fatal(err)
		}
		cu, err := um.Commit(q.caps[j], q.elig[j])
		if err != nil {
			t.Fatal(err)
		}
		if cw != gw || cu != gu || cw != cu {
			t.Fatalf("station %d: commits (w=%d u=%d) disagree with gains (w=%d u=%d) (p=%+v)",
				j, cw, cu, gw, gu, p)
		}
		if wm.Served() != um.Served() {
			t.Fatalf("station %d: weighted served %d != unit served %d (p=%+v)",
				j, wm.Served(), um.Served(), p)
		}
		checkWeightedState(t, wm, p, j+1)
	}
}

// TestWeightedEqualsUnitSeeds runs the expansion equivalence on 60 seeded
// random instances at paper scale (capacities in [50,300], cell weights up
// to 40) plus small shrinking instances, and probes GainBound soundness
// against the exact gain along the way.
func TestWeightedEqualsUnitSeeds(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		r := rand.New(rand.NewSource(seed))
		p := randomWeighted(r, seed%2 == 0)
		assertWeightedEqualsUnit(t, p)

		// Bound probes on the fully committed matcher.
		wm, err := NewWeightedMatcher(p.weights, len(p.caps)+1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.caps {
			if _, err := wm.Commit(p.caps[j], p.elig[j]); err != nil {
				t.Fatal(err)
			}
		}
		n := len(p.weights)
		for probe := 0; probe < 10; probe++ {
			capacity := r.Intn(300)
			var el []int
			eligWeight := 0
			for u := 0; u < n; u++ {
				if r.Intn(2) == 0 {
					el = append(el, u)
					eligWeight += p.weights[u]
				}
			}
			bound := wm.GainBound(capacity, BitsetFromSorted(n, el))
			g, err := wm.Gain(capacity, el)
			if err != nil {
				t.Fatal(err)
			}
			if bound < g {
				t.Fatalf("seed %d: GainBound %d < Gain %d (cap=%d elig=%v)", seed, bound, g, capacity, el)
			}
			if bound > capacity || bound > eligWeight {
				t.Fatalf("seed %d: GainBound %d exceeds static bound min(%d,%d)",
					seed, bound, capacity, eligWeight)
			}
		}
	}
}

// TestWeightedGainDoesNotMutate asserts the epoch/journal protocol: repeated
// Gain queries return identical values and leave the committed flows, loads
// and Served untouched.
func TestWeightedGainDoesNotMutate(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 80; trial++ {
		p := randomWeighted(r, false)
		m, err := NewWeightedMatcher(p.weights, len(p.caps)+1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.caps {
			if _, err := m.Commit(p.caps[j], p.elig[j]); err != nil {
				t.Fatal(err)
			}
		}
		flows := make([]int, len(p.caps)*len(p.weights))
		for k := range p.caps {
			for u := range p.weights {
				flows[k*len(p.weights)+u] = m.Flow(k, u)
			}
		}
		servedBefore := m.Served()
		var el []int
		for u := range p.weights {
			if r.Intn(2) == 0 {
				el = append(el, u)
			}
		}
		capacity := r.Intn(7)
		g1, err := m.Gain(capacity, el)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := m.Gain(capacity, el)
		if err != nil {
			t.Fatal(err)
		}
		if g1 != g2 {
			t.Fatalf("trial %d: Gain not idempotent: %d then %d", trial, g1, g2)
		}
		if m.Served() != servedBefore {
			t.Fatalf("trial %d: Gain changed Served %d -> %d", trial, servedBefore, m.Served())
		}
		for k := range p.caps {
			for u := range p.weights {
				if got := m.Flow(k, u); got != flows[k*len(p.weights)+u] {
					t.Fatalf("trial %d: Gain changed Flow(%d,%d) %d -> %d",
						trial, k, u, flows[k*len(p.weights)+u], got)
				}
			}
		}
		// A commit after the rewound queries realizes exactly the gain.
		c, err := m.Commit(capacity, el)
		if err != nil {
			t.Fatal(err)
		}
		if c != g1 {
			t.Fatalf("trial %d: Commit %d != Gain %d", trial, c, g1)
		}
	}
}

// TestWeightedResetReusable asserts the Reset protocol: a reset matcher
// replays a fresh matcher's commits value for value.
func TestWeightedResetReusable(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(11))
	weights := make([]int, 8)
	for u := range weights {
		weights[u] = r.Intn(4)
	}
	m, err := NewWeightedMatcher(weights, 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		k := 1 + r.Intn(4)
		caps := make([]int, k)
		elig := make([][]int, k)
		for j := 0; j < k; j++ {
			caps[j] = r.Intn(7)
			for u := range weights {
				if r.Intn(2) == 0 {
					elig[j] = append(elig[j], u)
				}
			}
		}
		if err := m.Reset(); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewWeightedMatcher(weights, 4)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < k; j++ {
			gr, err := m.Commit(caps[j], elig[j])
			if err != nil {
				t.Fatal(err)
			}
			gf, err := fresh.Commit(caps[j], elig[j])
			if err != nil {
				t.Fatal(err)
			}
			if gr != gf {
				t.Fatalf("trial %d station %d: reset matcher gained %d, fresh %d", trial, j, gr, gf)
			}
		}
		if m.Served() != fresh.Served() {
			t.Fatalf("trial %d: reset served %d, fresh %d", trial, m.Served(), fresh.Served())
		}
	}
}

func TestWeightedMatcherErrors(t *testing.T) {
	t.Parallel()
	if _, err := NewWeightedMatcher([]int{1, -1}, 2); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewWeightedMatcher([]int{1}, -1); err == nil {
		t.Error("negative slots should fail")
	}
	m, err := NewWeightedMatcher([]int{2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalDemand() != 5 || m.NumNodes() != 2 || m.Weight(1) != 3 {
		t.Errorf("accessors: total=%d nodes=%d w1=%d, want 5, 2, 3",
			m.TotalDemand(), m.NumNodes(), m.Weight(1))
	}
	if _, err := m.Gain(1, []int{7}); err == nil {
		t.Error("out-of-range eligible node should fail")
	}
	if _, err := m.Gain(-1, []int{0}); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := m.Commit(4, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Gain(1, []int{1}); err == nil {
		t.Error("Gain beyond maxSlots should fail")
	}
	if _, err := m.Commit(1, []int{1}); err == nil {
		t.Error("Commit beyond maxSlots should fail")
	}
	// Out-of-range queries on the Flow accessor are answered, not panicked.
	if m.Flow(-1, 0) != 0 || m.Flow(5, 0) != 0 || m.Flow(0, -1) != 0 || m.Flow(0, 9) != 0 {
		t.Error("out-of-range Flow should be 0")
	}
}

func TestAndWeightSum(t *testing.T) {
	t.Parallel()
	w := make([]int, 130)
	for i := range w {
		w[i] = i
	}
	a := BitsetFromSorted(130, []int{0, 5, 64, 129})
	b := BitsetFromSorted(130, []int{5, 64, 100})
	if got := AndWeightSum(a, b, w); got != 5+64 {
		t.Errorf("AndWeightSum = %d, want %d", got, 5+64)
	}
	empty := NewBitset(130)
	if got := AndWeightSum(a, empty, w); got != 0 {
		t.Errorf("AndWeightSum with empty = %d, want 0", got)
	}
}

// Load returns the demand absorbed by committed station k.
func (m *WeightedMatcher) Load(k int) int { return m.load[k] }

// NumNodes returns the number of demand nodes.
func (m *WeightedMatcher) NumNodes() int { return m.numNodes }

// Weight returns node u's demand.
func (m *WeightedMatcher) Weight(u int) int { return m.weight[u] }

// TotalDemand returns the sum of all node weights.
func (m *WeightedMatcher) TotalDemand() int {
	total := 0
	for _, w := range m.weight {
		total += w
	}
	return total
}

// bruteWeightedReach is bruteReach for demand nodes: a node is in reach
// when it has residual demand, or when a station holding part of it can
// absorb one more unit along an alternating chain (station -> an eligible
// node it has room on -> another holder of that node -> ...) that ends at
// a node with residual demand.
func bruteWeightedReach(m *WeightedMatcher) []bool {
	n := m.numNodes
	flow := func(k, u int) int32 { return m.flow[k*n+u] }
	sat := make([]bool, m.stations)
	for k := range sat {
		seen := make([]bool, m.stations)
		seen[k] = true
		stack := []int{k}
		for len(stack) > 0 && !sat[k] {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range m.elig[j] {
				if flow(j, u) >= int32(m.weight[u]) {
					continue
				}
				if m.residual[u] > 0 {
					sat[k] = true
					break
				}
				for h := 0; h < m.stations; h++ {
					if h != j && flow(h, u) > 0 && !seen[h] {
						seen[h] = true
						stack = append(stack, h)
					}
				}
			}
		}
	}
	reach := make([]bool, n)
	for u := range reach {
		reach[u] = m.residual[u] > 0
		for k := 0; k < m.stations && !reach[u]; k++ {
			reach[u] = sat[k] && flow(k, u) > 0
		}
	}
	return reach
}

// TestWeightedReachExactProperty is TestReachExactProperty for the
// weighted matcher.
func TestWeightedReachExactProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(92))
	for trial := 0; trial < 2000; trial++ {
		p := randomWeighted(r, false)
		n := len(p.weights)
		m, err := NewWeightedMatcher(p.weights, len(p.caps))
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.caps {
			for probe := 0; probe < 4; probe++ {
				capacity := r.Intn(7)
				var el []int
				for u := 0; u < n; u++ {
					if r.Intn(2) == 0 {
						el = append(el, u)
					}
				}
				bound := m.GainBound(capacity, BitsetFromSorted(n, el))
				g, err := m.Gain(capacity, el)
				if err != nil {
					t.Fatal(err)
				}
				if bound < g {
					t.Fatalf("trial %d, before commit %d: GainBound %d < Gain %d (cap=%d elig=%v p=%+v)",
						trial, j, bound, g, capacity, el, p)
				}
			}
			if _, err := m.Commit(p.caps[j], p.elig[j]); err != nil {
				t.Fatal(err)
			}
			m.GainBound(0, NewBitset(n))
			for u, want := range bruteWeightedReach(m) {
				if m.reach.Has(u) != want {
					t.Fatalf("trial %d, after commit %d: node %d in reach = %v, want %v (p=%+v)",
						trial, j, u, m.reach.Has(u), want, p)
				}
			}
		}
	}
}
