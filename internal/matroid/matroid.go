// Package matroid provides the matroid machinery of Section II-E and
// Sections III-B/III-C: a matroid interface over integer ground sets, the
// partition matroid M1 (each UAV deployed at most once), the hop-count
// matroid M2 (Eq. (1): at most Q_h chosen locations at hop distance >= h
// from the anchor set), and a lazy greedy that maximizes a monotone
// submodular function subject to the intersection of matroid constraints
// with the 1/(rho+1) guarantee of Fisher, Nemhauser and Wolsey [9].
package matroid

import (
	"fmt"
	"math"
	"sort"
)

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

// HopCount is the matroid M2 of Section III-C. Ground elements are candidate
// locations; Dist[e] is the minimum hop distance (in the location graph G)
// from element e to the anchor set {v*_1..v*_s}, or Unreachable if e cannot
// reach any anchor. Q[h] (0 <= h <= hmax) caps the number of chosen elements
// at hop distance >= h; Q[0] = L caps the total selection size.
//
// The constraint family {elements with Dist >= h} is a nested chain, so the
// counting constraints define a laminar — hence valid — matroid.
type HopCount struct {
	Dist []int
	Q    []int
}

// Unreachable marks elements with no path to the anchor set.
const Unreachable = -1

// HMax returns hmax, the largest admissible hop distance.
func (m HopCount) HMax() int { return len(m.Q) - 1 }

// Independent implements Matroid.
func (m HopCount) Independent(set []int) bool {
	counts := make([]int, len(m.Q))
	for _, e := range set {
		if e < 0 || e >= len(m.Dist) {
			return false
		}
		d := m.Dist[e]
		if d == Unreachable || d > m.HMax() {
			return false
		}
		// Element at distance d contributes to every threshold h <= d.
		for h := 0; h <= d; h++ {
			counts[h]++
			if counts[h] > m.Q[h] {
				return false
			}
		}
	}
	return true
}

// CanAdd implements Matroid.
func (m HopCount) CanAdd(set []int, e int) bool {
	return m.CanAddInto(set, e, make([]int, len(m.Q)))
}

// CanAddInto is CanAdd with a caller-provided counting buffer of length at
// least len(m.Q); reusing the buffer across the many feasibility probes of a
// greedy run removes the per-probe allocation. The verdict is identical to
// CanAdd's.
func (m HopCount) CanAddInto(set []int, e int, counts []int) bool {
	if e < 0 || e >= len(m.Dist) {
		return false
	}
	d := m.Dist[e]
	if d == Unreachable || d > m.HMax() {
		return false
	}
	counts = counts[:d+1]
	for i := range counts {
		counts[i] = 0
	}
	for _, x := range set {
		dx := m.Dist[x]
		if dx > d {
			dx = d
		}
		for h := 0; h <= dx; h++ {
			counts[h]++
		}
	}
	for h := 0; h <= d; h++ {
		if counts[h]+1 > m.Q[h] {
			return false
		}
	}
	return true
}

// Limit returns the largest hop distance at which an element can still join
// a selection with threshold counts counts — counts[h] is the number of
// selected elements at distance >= h, for 0 <= h <= HMax — or -1 when no
// element can. An element at distance d is addable iff counts[h]+1 <= Q[h]
// for every h <= d, which is a prefix condition on d. So CanAddInto holds
// for e exactly when Dist[e] != Unreachable and Dist[e] <= Limit(counts), and
// the limit only falls as the selection grows.
func (m HopCount) Limit(counts []int) int {
	for h, q := range m.Q {
		if counts[h]+1 > q {
			return h - 1
		}
	}
	return m.HMax()
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

// Oracle answers marginal-gain queries for the lazy greedy. Gains must be
// consistent with a monotone submodular objective: the gain of an element
// must not increase as the committed set grows (rounds advance). Commit
// realizes a selection; after Commit the oracle's committed set grows by e.
type Oracle interface {
	// Gain returns the marginal objective gain of adding element e to the
	// committed set at the given round (0-based selection index).
	Gain(round, e int) (int, error)
	// Commit adds element e at the given round and returns its realized gain.
	Commit(round, e int) (int, error)
}

// Bounder is an optional Oracle extension: Bound(e) returns a static upper
// bound on the marginal gain of element e that is valid at every round
// (e.g. min(capacity, reachable users) for UAV placement). When an oracle
// implements Bounder, LazyGreedy seeds the priority queue with these bounds
// instead of +infinity, skipping exact evaluations of hopeless elements.
type Bounder interface {
	Bound(e int) int
}

// DynamicBounder is a further optional Oracle extension: RoundBound(round, e)
// returns an upper bound on the marginal gain of element e at the given
// round that may tighten as the committed set grows (e.g. a popcount against
// the still-augmentable users for UAV placement). The bound MUST be sound —
// at least the true current gain — but should be much cheaper than Gain.
// When an oracle implements DynamicBounder, the greedy consults the dynamic
// bound on every stale pop and, if it already drops the element below the
// heap top, re-keys the entry without paying for an exact evaluation.
//
// Soundness is all that correctness needs: the greedy commits an element
// only when its freshly evaluated exact gain tops every other entry's upper
// bound, so with any sound bounds the selection is identical — bounds only
// decide how many exact evaluations are skipped.
type DynamicBounder interface {
	RoundBound(round, e int) int
}

// pqItem is one lazy-greedy priority-queue entry.
type pqItem struct {
	elem  int
	bound int // upper bound on the current marginal gain
	round int // round at which bound was computed; -1 = never
}

// pq is a max-heap of pqItems ordered by (bound desc, elem asc). The heap
// operations are hand-rolled rather than going through container/heap so
// that pushes and pops move values directly, without boxing each pqItem into
// an interface (one heap allocation per operation otherwise).
type pq []pqItem

// itemLess reports whether a sorts before b: higher bound first, then the
// smaller element index for a deterministic tie-break.
func itemLess(a, b pqItem) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	return a.elem < b.elem
}

func (q pq) less(i, j int) bool { return itemLess(q[i], q[j]) }

func (q pq) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	i := len(*q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*q).less(i, parent) {
			break
		}
		(*q)[i], (*q)[parent] = (*q)[parent], (*q)[i]
		i = parent
	}
}

func (q *pq) pop() pqItem {
	old := *q
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*q = old[:n]
	(*q).down(0)
	return top
}

func (q pq) down(i int) {
	n := len(q)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
}

// LazyGreedy selects up to rounds elements from the ground set, each round
// adding the feasible element of maximum marginal gain (ties broken by the
// smallest element index), using lazy re-evaluation of stale gain bounds.
//
// feasible(selected, e) must report whether selected+{e} stays independent in
// the constraint system; with matroid constraints pass Intersection.CanAdd.
// The function stops early when no feasible element remains and returns the
// selected elements in selection order.
//
// Lazy evaluation is exact for monotone submodular objectives: a gain bound
// computed at an earlier round upper-bounds the true current gain, so when a
// freshly evaluated element still tops the queue it is the true argmax.
//
// Callers that run many selections over the same universe should keep a
// LazyRunner instead: this convenience wrapper pays the working-memory
// allocations on every call.
func LazyGreedy(ground []int, rounds int, feasible func(selected []int, e int) bool, o Oracle) ([]int, error) {
	var lr LazyRunner
	sel, err := lr.Run(ground, rounds, feasible, o)
	if err != nil {
		return nil, err
	}
	if sel == nil {
		return nil, nil
	}
	return append([]int(nil), sel...), nil
}

// LazyRunner runs the LazyGreedy selection rule with all working memory —
// the lazy priority queue, the selected list, the membership mask and M2's
// threshold counts — reused across calls, on the same pattern as
// assign.Evaluator: construct once per worker, Run or RunHop once per
// subset. The zero value is ready to use.
type LazyRunner struct {
	q        pq
	selected []int
	mark     []bool // mark[e]: e is in the current selection (Run)
	counts   []int  // counts[h]: selected elements at hop distance >= h (RunHop)
}

// Run performs one lazy-greedy selection, identical in outcome to
// LazyGreedy. The returned slice is owned by the runner and only valid until
// the next Run call; callers that retain it must copy.
func (lr *LazyRunner) Run(ground []int, rounds int, feasible func(selected []int, e int) bool, o Oracle) ([]int, error) {
	if rounds < 0 {
		return nil, fmt.Errorf("matroid: negative round count %d", rounds)
	}
	q := lr.q[:0]
	bounder, hasBounds := o.(Bounder)
	dyn, _ := o.(DynamicBounder)
	maxElem := -1
	for _, e := range ground {
		bound := math.MaxInt32
		if hasBounds {
			bound = bounder.Bound(e)
		}
		q = append(q, pqItem{elem: e, bound: bound, round: -1})
		if e > maxElem {
			maxElem = e
		}
	}
	q.init()
	for len(lr.mark) <= maxElem {
		lr.mark = append(lr.mark, false)
	}

	selected := lr.selected[:0]
	var runErr error
rounds:
	for round := 0; round < rounds; round++ {
		for len(q) > 0 {
			it := q.pop()
			if lr.mark[it.elem] {
				continue
			}
			if !feasible(selected, it.elem) {
				// With matroid constraints an element infeasible now can
				// never become feasible again (selected only grows and
				// independence is hereditary), so drop it for good.
				continue
			}
			if it.round == round {
				if _, err := o.Commit(round, it.elem); err != nil {
					runErr = fmt.Errorf("matroid: commit(%d, %d): %w", round, it.elem, err)
					break rounds
				}
				selected = append(selected, it.elem)
				lr.mark[it.elem] = true
				continue rounds
			}
			if runErr = q.refresh(it, round, o, dyn); runErr != nil {
				break rounds
			}
		}
		break // no feasible element remains
	}
	lr.q = q
	lr.selected = selected
	for _, e := range selected {
		lr.mark[e] = false
	}
	if runErr != nil {
		return nil, runErr
	}
	return selected, nil
}

// refresh puts a stale entry (one whose bound predates this round) back on
// the heap with a tighter key: a sound dynamic bound when dyn is non-nil and
// that bound already drops it below the heap top, its exact gain otherwise.
func (q *pq) refresh(it pqItem, round int, o Oracle, dyn DynamicBounder) error {
	if dyn != nil {
		// A cheap sound bound may already push the element below the heap
		// top; if so, re-key it (round stays stale, so it will be evaluated
		// exactly before it can ever commit) and move on without paying for
		// a matching query. The re-key fires only when the bound strictly
		// drops, so every element pays at most bound-many re-keys and the
		// loop terminates.
		if b := dyn.RoundBound(round, it.elem); b < it.bound {
			it.bound = b
			if len(*q) > 0 && itemLess((*q)[0], it) {
				q.push(it)
				return nil
			}
		}
	}
	g, err := o.Gain(round, it.elem)
	if err != nil {
		return fmt.Errorf("matroid: gain(%d, %d): %w", round, it.elem, err)
	}
	it.bound = g
	it.round = round
	q.push(it)
	return nil
}

// Presorted is the universe 0..n-1 of a lazy greedy in its initial heap
// order: static bound descending, element ascending. A sorted array is a
// valid heap, so RunHop seeds its heap by filtering one — no heapify, no
// Bound call per run.
type Presorted struct {
	items []pqItem
}

// Presort orders the elements 0..n-1 by o's static Bound (every bound is
// math.MaxInt32 when o is not a Bounder), then by index. Bound is read once
// here, so it must stay valid for every run that reuses the result.
func Presort(n int, o Oracle) Presorted {
	bounder, hasBounds := o.(Bounder)
	items := make([]pqItem, n)
	for e := range items {
		bound := math.MaxInt32
		if hasBounds {
			bound = bounder.Bound(e)
		}
		items[e] = pqItem{elem: e, bound: bound, round: -1}
	}
	sort.Slice(items, func(i, j int) bool { return itemLess(items[i], items[j]) })
	return Presorted{items: items}
}

// RunHop is Run with the hop-count matroid m as the only constraint, over
// the universe p presorted against o's static bounds (one element per entry
// of m.Dist). It selects exactly what Run selects over the ground set of
// elements at a reachable distance <= HMax with m.CanAddInto as the
// feasibility test, but it never pops an infeasible element and never
// probes feasibility: by Limit, the addable elements are exactly those
// within the current limit. The heap starts as the presorted elements within
// the initial limit, and each commit that lowers the limit drops every
// element beyond it in one compaction followed by a heapify.
//
// The selection cannot differ from Run's. With sound bounds a lazy greedy
// commits, each round, the feasible unselected element of largest exact
// gain, ties going to the smaller element under the (bound desc, element
// asc) order; how infeasible elements leave the heap does not enter into it.
// Only the number of Gain and RoundBound calls may differ, and a Gain never
// changes what a later Commit or Gain returns.
//
// The returned slice is owned by the runner and only valid until the next
// Run or RunHop call.
func (lr *LazyRunner) RunHop(p Presorted, m HopCount, rounds int, o Oracle) ([]int, error) {
	if rounds < 0 {
		return nil, fmt.Errorf("matroid: negative round count %d", rounds)
	}
	if len(p.items) != len(m.Dist) {
		return nil, fmt.Errorf("matroid: presorted universe has %d elements, M2 has %d", len(p.items), len(m.Dist))
	}
	counts := lr.counts[:0]
	for range m.Q {
		counts = append(counts, 0)
	}
	limit := m.Limit(counts)
	q := lr.q[:0]
	for _, it := range p.items {
		if d := m.Dist[it.elem]; d != Unreachable && d <= limit {
			q = append(q, it)
		}
	}
	dyn, _ := o.(DynamicBounder)

	selected := lr.selected[:0]
	var runErr error
rounds:
	for round := 0; round < rounds; round++ {
		for len(q) > 0 {
			it := q.pop()
			if it.round == round {
				if _, err := o.Commit(round, it.elem); err != nil {
					runErr = fmt.Errorf("matroid: commit(%d, %d): %w", round, it.elem, err)
					break rounds
				}
				selected = append(selected, it.elem)
				for h := 0; h <= m.Dist[it.elem]; h++ {
					counts[h]++
				}
				if l := m.Limit(counts); l < limit {
					limit = l
					q = q.within(m.Dist, limit)
				}
				continue rounds
			}
			if runErr = q.refresh(it, round, o, dyn); runErr != nil {
				break rounds
			}
		}
		break // no feasible element remains
	}
	lr.q = q
	lr.selected = selected
	lr.counts = counts
	if runErr != nil {
		return nil, runErr
	}
	return selected, nil
}

// within drops every entry whose element lies beyond hop distance limit and
// restores the heap order over the survivors.
func (q pq) within(dist []int, limit int) pq {
	kept := q[:0]
	for _, it := range q {
		if dist[it.elem] <= limit {
			kept = append(kept, it)
		}
	}
	kept.init()
	return kept
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
