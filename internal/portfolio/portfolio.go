// Package portfolio escapes the C(m, s) enumeration wall: instead of walking
// every anchor subset, a portfolio of budgeted local-search solvers —
// simulated annealing, tabu search, GRASP, and a genetic pass — explores the
// same anchor-subset space through the same evaluation stack Algorithm 2
// uses. Every move is scored by core.SubsetEvaluator, i.e. by the exact
// greedy-placement/relay/leftover/matcher pipeline of one enumeration step,
// so a move costs microseconds and the returned deployment is exactly what
// the enumeration would have produced had it reached the same subset. The
// worst-case approximation guarantee is traded for a budget: solve cost
// becomes O(budget) evaluations regardless of m.
//
// Determinism contract: every solver draws randomness only from its own
// serializable RNG, budgets are counted in evaluations — never wall clock —
// and the race reduction breaks ties by a fixed member order. Same scenario +
// same Options.Seed + same budget therefore reproduce the same deployment
// byte for byte, on any machine, with any GOMAXPROCS, interrupted and resumed
// or not.
package portfolio

import (
	"fmt"
	"sort"

	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/graph"
)

// Solver is one portfolio member: a budgeted local search over anchor
// subsets. Step advances the search by one atomic unit, costing at most
// tabuWidth evaluations (a tabu step scores its candidate set, every other
// step at most one); Best reports the best feasible subset seen so far. Solvers are single-goroutine objects; the race gives each its own.
type Solver interface {
	// Step advances the search by one unit. It returns false when the
	// member's evaluation budget is exhausted and the search is over.
	Step() (bool, error)
	// Best returns the best feasible anchor subset found and its exact
	// served count, or (nil, -1) while none has been found. The slice is
	// owned by the solver.
	Best() ([]int, int)
	// State freezes the member for a checkpoint; Restore rewinds it to a
	// previously frozen state. A restored member continues exactly the
	// interrupted trajectory: the state carries everything step t+1 depends
	// on (RNG, incumbent, best, member-specific memory).
	State() (core.SolverState, error)
	Restore(core.SolverState) error
}

// Members lists the portfolio's member names in canonical race order — the
// deterministic tie-break when two members find equally good subsets.
func Members() []string { return []string{"anneal", "tabu", "grasp", "genetic"} }

// memberIndex returns the canonical index of a member name, or -1.
func memberIndex(name string) int {
	for i, m := range Members() {
		if m == name {
			return i
		}
	}
	return -1
}

// problem is the shared read-only view of the search space: which anchor
// subsets are worth evaluating at all. A subset is *admissible* when its
// cells are distinct, lie in one location-graph component, and satisfy the
// enumeration's sound pruning bound maxHop(A)+1 <= K (a set violating it can
// never pass the q_j <= K feasibility check, so admissibility loses no
// optima). Moves and repairs stay inside the admissible region by
// construction; FuzzNeighborMove asserts as much.
type problem struct {
	in *core.Instance
	s  int
	k  int
	m  int
	// comps lists the location-graph components with at least s cells, each
	// a sorted cell list; component order follows the smallest member cell,
	// so the layout is deterministic.
	comps [][]int
	// compOf[c] is the index into comps of cell c's component, or -1 when
	// the component is too small to host an anchor set.
	compOf []int
}

// newProblem builds the shared search-space view for the instance.
func newProblem(in *core.Instance, s int) (*problem, error) {
	m := in.Scenario.M()
	p := &problem{in: in, s: s, k: in.Scenario.K(), m: m, compOf: make([]int, m)}
	for i := range p.compOf {
		p.compOf[i] = -1
	}
	// Component discovery off the hop matrix: cells a, b share a component
	// iff Hop[a][b] != Unreachable. Scanning cells in ascending order makes
	// component ids ascend with their smallest member.
	seen := make([]bool, m)
	for c := 0; c < m; c++ {
		if seen[c] {
			continue
		}
		var cells []int
		for d := c; d < m; d++ {
			if !seen[d] && in.Hop[c][d] != graph.Unreachable {
				seen[d] = true
				cells = append(cells, d)
			}
		}
		if len(cells) >= s {
			for _, d := range cells {
				p.compOf[d] = len(p.comps)
			}
			p.comps = append(p.comps, cells)
		}
	}
	if len(p.comps) == 0 {
		return nil, fmt.Errorf("portfolio: no location-graph component has %d cells; no anchor subset exists", s)
	}
	return p, nil
}

// hopOK reports whether cell c is within the admissible hop bound of every
// anchor in a: Hop[c][a_i]+1 <= K for all i, with Unreachable always failing.
func (p *problem) hopOK(c int, a []int) bool {
	for _, x := range a {
		d := p.in.Hop[c][x]
		if d == graph.Unreachable || d+1 > p.k {
			return false
		}
	}
	return true
}

// contains reports whether sorted slice a contains c.
func contains(a []int, c int) bool {
	i := sort.SearchInts(a, c)
	return i < len(a) && a[i] == c
}

// replaceAt returns a copy of sorted a with position i replaced by c,
// re-sorted. dst is reused when it has capacity.
func replaceAt(dst, a []int, i, c int) []int {
	dst = append(dst[:0], a...)
	dst[i] = c
	sort.Ints(dst)
	return dst
}

// seedSubset deterministically constructs one admissible subset: it scans
// start cells in a component and greedily completes each by ascending cell
// index under the hop bound. startOff rotates the scan so different callers
// (and RNG draws) reach different seeds. Returns nil when no start in any
// component completes — which, for this greedy, is the package's "no anchor
// subset found" signal.
func (p *problem) seedSubset(startOff int) []int {
	for ci := range p.comps {
		cells := p.comps[ci]
		for off := 0; off < len(cells); off++ {
			start := cells[(startOff+off)%len(cells)]
			a := []int{start}
			for _, c := range cells {
				if len(a) == p.s {
					break
				}
				if c == start || !p.hopOK(c, a) {
					continue
				}
				a = append(a, c)
			}
			if len(a) == p.s {
				sort.Ints(a)
				return a
			}
		}
	}
	return nil
}

// repair coerces an arbitrary cell multiset into an admissible subset, the
// matroid-style repair the genetic crossover relies on: dedup, restrict to
// the dominant admissible component, drop hop-violating anchors (largest
// eccentricity first), then grow back to size s with hop-feasible cells
// scanned from a rotating offset. Returns nil when the component cannot host
// an admissible completion from this state; callers fall back to a known
// admissible set (a parent), so repair never leaves the feasible region.
func (p *problem) repair(cells []int, startOff int) []int {
	// Dedup into ascending order, keeping only cells in admissible components.
	a := append([]int(nil), cells...)
	sort.Ints(a)
	w := 0
	for i, c := range a {
		if c < 0 || c >= p.m || p.compOf[c] < 0 {
			continue
		}
		if i > 0 && w > 0 && a[w-1] == c {
			continue
		}
		a[w] = c
		w++
	}
	a = a[:w]
	if len(a) == 0 {
		return p.seedSubset(startOff)
	}
	// Dominant component: most members, ties to the smaller component id
	// (the slice scan is ascending, so the first maximum wins).
	counts := make([]int, len(p.comps))
	for _, c := range a {
		counts[p.compOf[c]]++
	}
	bestComp, bestCount := -1, 0
	for comp, n := range counts {
		if n > bestCount {
			bestComp, bestCount = comp, n
		}
	}
	w = 0
	for _, c := range a {
		if p.compOf[c] == bestComp {
			a[w] = c
			w++
		}
	}
	a = a[:w]
	if len(a) > p.s {
		a = a[:p.s]
	}
	// Shrink until pairwise hop-admissible: repeatedly drop the most
	// eccentric anchor.
	for len(a) > 1 {
		worstI, worstEcc := p.mostEccentric(a)
		if worstEcc+1 <= p.k {
			break
		}
		a = append(a[:worstI], a[worstI+1:]...)
	}
	// Grow back to size s with hop-feasible cells, scanning the component
	// from a rotating offset; each addition preserves admissibility, so the
	// result is admissible by induction. If the scan dries up, drop the
	// most eccentric anchor and retry — with a single anchor left, failure
	// means this region truly cannot host a size-s set.
	comp := p.comps[bestComp]
	for len(a) < p.s {
		added := -1
		for off := 0; off < len(comp); off++ {
			c := comp[(startOff+off)%len(comp)]
			if contains(a, c) || !p.hopOK(c, a) {
				continue
			}
			added = c
			break
		}
		if added >= 0 {
			a = append(a, added)
			sort.Ints(a)
			continue
		}
		if len(a) <= 1 {
			return nil
		}
		worstI, _ := p.mostEccentric(a)
		a = append(a[:worstI], a[worstI+1:]...)
	}
	return a
}

// mostEccentric returns the position in a (at least two cells) of the anchor
// with the largest hop eccentricity within a, and that eccentricity. Ties go
// to the larger cell, so the smallest cells — the stable part of the set —
// survive a drop. An Unreachable pair counts as m+k hops; repair only passes
// cells of one component, so that cannot happen.
func (p *problem) mostEccentric(a []int) (worstI, worstEcc int) {
	worstI, worstEcc = -1, -1
	for i, c := range a {
		ecc := 0
		for j, d := range a {
			if i == j {
				continue
			}
			h := p.in.Hop[c][d]
			if h == graph.Unreachable {
				h = p.m + p.k
			}
			ecc = max(ecc, h)
		}
		if ecc > worstEcc || (ecc == worstEcc && c > a[worstI]) {
			worstI, worstEcc = i, ecc
		}
	}
	return worstI, worstEcc
}
