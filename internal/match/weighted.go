package match

import (
	"fmt"
	"math"
)

// wjournalEntry records one flow mutation so speculative Gain queries can
// rewind: applyFlow(slot, node, -delta) undoes it exactly, including the
// residual and unserved-bitset bookkeeping.
type wjournalEntry struct {
	slot, node, delta int32
}

// WeightedMatcher generalizes Matcher from unit users to integer-weighted
// demand nodes: node u carries weight[u] units of demand (for the demand
// aggregation layer, the number of co-binned users), and a station of
// capacity c may absorb up to c units spread across its eligible nodes, at
// most weight[u] of them through node u. The committed state is the dense
// flow table flow[k][u] instead of Matcher's owner array; everything else —
// the epoch-stamped visited marks, the speculative journal with rewind, the
// Reset reuse protocol, and the lazy alternating-reachability gain bound —
// carries over with weights in place of unit counts.
//
// Augmenting attempts walk the same alternating chains as the unit matcher,
// but each chain now moves its bottleneck amount instead of a single user:
// a direct hit on a node with residual demand absorbs min(want, residual,
// room) units at once, and a steal takes up to the victim station's flow on
// the contested node, provided the victim re-acquires that amount elsewhere
// first. Correctness rests on the same two facts as the unit matcher, which
// survive weighting because success of a search depends only on residual-
// graph reachability, never on the amounts in flight:
//
//  1. After adding a station to a maximum b-matching, every augmenting path
//     starts at the new station, so searching from it alone finds one.
//  2. A failed search mutates nothing and its failure is amount-independent
//     (every positive residual admits at least one unit), so the first
//     failed attempt ends the query.
//
// On an instance where every weight is 1 the matcher's Gain/Commit/Served
// values coincide with Matcher's (the package tests assert this against the
// user-expanded instance), so the unit matcher remains the reference
// implementation.
//
// A WeightedMatcher must not be shared between goroutines.
//
//uavlint:scratch epoch=epoch tables=visited
type WeightedMatcher struct {
	numNodes int
	maxSlots int

	// weight[u] is node u's demand; immutable after construction.
	weight []int

	// flow[k*numNodes+u] is the demand of node u absorbed by station k;
	// residual[u] = weight[u] - sum_k flow[k][u]. Slot maxSlots is the
	// scratch slot Gain queries borrow, so flow holds maxSlots+1 rows.
	// int32 keeps the one dense table compact on fine demand grids.
	flow     []int32
	residual []int32
	served   int
	stations int

	// Committed per-station state (see Matcher).
	elig [][]int // borrowed from the caller, never mutated
	load []int

	// Epoch-stamped visited marks: visited[u] == epoch means node u was
	// entered by the current augmenting attempt.
	visited []uint64
	epoch   uint64

	// unserved has a bit per node with residual demand; hasDemand is the
	// construction-time template (weight > 0) Reset restores it from. reach
	// additionally includes every node some satisfiable flow-holder could
	// release (see recomputeReach); it is recomputed lazily after commits.
	unserved   Bitset
	hasDemand  Bitset
	reach      Bitset
	reachValid bool
	sat        []bool

	// Speculative-query journal.
	journal    []wjournalEntry
	journaling bool
}

// NewWeightedMatcher returns a matcher over the given node weights and at
// most maxSlots committed stations. Weights must be non-negative and fit in
// int32; zero-weight nodes are legal and never served.
func NewWeightedMatcher(weights []int, maxSlots int) (*WeightedMatcher, error) {
	if maxSlots < 0 {
		return nil, fmt.Errorf("match: negative slot count %d", maxSlots)
	}
	n := len(weights)
	m := &WeightedMatcher{
		numNodes:  n,
		maxSlots:  maxSlots,
		weight:    make([]int, n),
		flow:      make([]int32, (maxSlots+1)*n),
		residual:  make([]int32, n),
		elig:      make([][]int, maxSlots+1),
		load:      make([]int, maxSlots+1),
		visited:   make([]uint64, n),
		unserved:  NewBitset(n),
		hasDemand: NewBitset(n),
		reach:     NewBitset(n),
		sat:       make([]bool, maxSlots+1),
	}
	for u, w := range weights {
		if w < 0 || w > math.MaxInt32 {
			return nil, fmt.Errorf("match: node %d has invalid weight %d", u, w)
		}
		m.weight[u] = w
		m.residual[u] = int32(w)
		if w > 0 {
			m.hasDemand.Set(u)
		}
	}
	m.unserved.CopyFrom(m.hasDemand)
	return m, nil
}

// Reset rewinds the matcher to its fresh state (no committed stations),
// reusing all memory. Only the committed stations' eligibility rows can hold
// flow, so clearing walks those lists instead of the whole table.
func (m *WeightedMatcher) Reset() error {
	for k := 0; k < m.stations; k++ {
		base := k * m.numNodes
		for _, u := range m.elig[k] {
			m.flow[base+u] = 0
		}
		m.elig[k] = nil
	}
	for u, w := range m.weight {
		m.residual[u] = int32(w)
	}
	m.unserved.CopyFrom(m.hasDemand)
	m.stations = 0
	m.served = 0
	m.reachValid = false
	return nil
}

// Served returns the total demand absorbed by the committed stations.
func (m *WeightedMatcher) Served() int { return m.served }

// Flow returns the demand of node u absorbed by committed station k. The
// demand-expansion step reads the final per-(station, node) flows back
// through it.
func (m *WeightedMatcher) Flow(k, u int) int {
	if k < 0 || k >= m.stations || u < 0 || u >= m.numNodes {
		return 0
	}
	return int(m.flow[k*m.numNodes+u])
}

// checkStation validates a Gain/Commit request: a free slot must remain, the
// capacity must be a non-negative int32, and every eligible node in range.
func (m *WeightedMatcher) checkStation(capacity int, eligible []int) error {
	if m.stations >= m.maxSlots {
		return fmt.Errorf("match: all %d station slots committed", m.maxSlots)
	}
	if capacity < 0 || capacity > math.MaxInt32 {
		return fmt.Errorf("match: invalid capacity %d", capacity)
	}
	for _, u := range eligible {
		if u < 0 || u >= m.numNodes {
			return fmt.Errorf("match: eligible node %d outside [0,%d)", u, m.numNodes)
		}
	}
	return nil
}

// applyFlow moves d units of node u onto station s (or off it, for negative
// d) and maintains the residual and the unserved bitset. It is its own
// inverse under d -> -d, which is what makes journal rewind exact.
func (m *WeightedMatcher) applyFlow(s, u int, d int32) {
	m.flow[s*m.numNodes+u] += d
	r := m.residual[u] - d
	m.residual[u] = r
	if r > 0 {
		m.unserved.Set(u)
	} else {
		m.unserved.Clear(u)
	}
}

// addFlow is applyFlow plus journaling while a speculative query is active.
func (m *WeightedMatcher) addFlow(s, u int, d int32) {
	if m.journaling {
		m.journal = append(m.journal, wjournalEntry{slot: int32(s), node: int32(u), delta: d})
	}
	m.applyFlow(s, u, d)
}

// tryServe finds one augmenting alternating chain giving station k up to
// want more units and returns the amount moved (0 on failure, mutating
// nothing in that case). A node is entered at most once per epoch, and only
// through an edge with room (flow[k][u] < weight[u]); entries through
// saturated edges are skipped without marking so another station's
// unsaturated edge into the same node can still be explored. Once a node is
// genuinely entered and fails, it is dead for the attempt regardless of the
// entry edge, because failure depends only on the node's own out-edges.
func (m *WeightedMatcher) tryServe(k int, want int32) int32 {
	base := k * m.numNodes
	for _, u := range m.elig[k] {
		if m.visited[u] == m.epoch {
			continue
		}
		room := int32(m.weight[u]) - m.flow[base+u]
		if room <= 0 {
			continue
		}
		m.visited[u] = m.epoch
		push := want
		if room < push {
			push = room
		}
		if r := m.residual[u]; r > 0 {
			if r < push {
				push = r
			}
			m.addFlow(k, u, push)
			return push
		}
		// Node fully absorbed: steal from a holder that can re-acquire the
		// stolen amount elsewhere. Holders are committed stations plus, on
		// deeper recursion levels, the station currently being augmented
		// (slot m.stations), whose partial flow is part of the residual
		// graph exactly as in the unit matcher.
		for j := 0; j <= m.stations; j++ {
			if j == k {
				continue
			}
			f := m.flow[j*m.numNodes+u]
			if f <= 0 {
				continue
			}
			steal := push
			if f < steal {
				steal = f
			}
			if got := m.tryServe(j, steal); got > 0 {
				m.addFlow(j, u, -got)
				m.addFlow(k, u, got)
				return got
			}
		}
	}
	return 0
}

// augment runs capacity-capped augmenting attempts for slot k and returns
// the total demand gained. Each successful attempt moves a chain's
// bottleneck amount; the first failed attempt ends the loop (see the type
// comment for why that is sound).
func (m *WeightedMatcher) augment(k, capacity int) int {
	got := 0
	for got < capacity {
		m.epoch++
		g := m.tryServe(k, int32(capacity-got))
		if g == 0 {
			break
		}
		got += int(g)
	}
	return got
}

// Gain returns how much additional demand would be served if a station with
// the given capacity and eligible-node list were added to the committed set.
// The committed state is not modified: the query augments in place and then
// rewinds through the flow journal.
func (m *WeightedMatcher) Gain(capacity int, eligible []int) (int, error) {
	if err := m.checkStation(capacity, eligible); err != nil {
		return 0, err
	}
	k := m.stations
	m.elig[k] = eligible
	m.journaling = true
	g := m.augment(k, capacity)
	m.journaling = false
	for i := len(m.journal) - 1; i >= 0; i-- {
		e := m.journal[i]
		m.applyFlow(int(e.slot), int(e.node), -e.delta)
	}
	m.journal = m.journal[:0]
	m.elig[k] = nil
	return g, nil
}

// Commit adds the station to the committed set and returns its realized
// gain. Later commits may steal demand from it, but every steal forces the
// thief to hand back a replacement through the same chain, so the load is
// fixed at commit time.
func (m *WeightedMatcher) Commit(capacity int, eligible []int) (int, error) {
	if err := m.checkStation(capacity, eligible); err != nil {
		return 0, err
	}
	k := m.stations
	m.elig[k] = eligible
	m.load[k] = m.augment(k, capacity)
	m.served += m.load[k]
	m.stations++
	m.reachValid = false
	return m.load[k], nil
}

// GainBound returns min(capacity, total weight of eligMask ∩ reach), a sound
// upper bound on what Gain would return for a station with that capacity and
// an eligible set whose bitset is eligMask. The argument is the weighted
// version of Matcher.GainBound's: decompose any augmentation into unit
// chains; each chain enters through an eligible node u, at most weight[u]
// chains can share u (the new station's edge into u carries at most
// weight[u] units), and a chain can enter through u only if u still has
// residual demand or some current holder of u can re-acquire a unit through
// an alternating chain — which is exactly u ∈ reach. Summing weights over
// the eligible reach nodes therefore bounds the gain from above.
func (m *WeightedMatcher) GainBound(capacity int, eligMask Bitset) int {
	if !m.reachValid {
		m.recomputeReach()
	}
	b := AndWeightSum(eligMask, m.reach, m.weight)
	if capacity < b {
		b = capacity
	}
	return b
}

// recomputeReach rebuilds the alternating-reachability set: a node is in
// reach iff it has residual demand, or some station holding part of it is
// "satisfiable" — able to absorb one more net unit through an alternating
// chain. Station satisfiability is the fixpoint of: k is satisfiable iff
// some eligible node of k is in reach and k has room on it (flow < weight).
// Each sweep either marks a new station satisfiable or terminates, so the
// loop runs at most stations+1 sweeps over the committed eligibility lists,
// which double as the flow-holder adjacency — no per-node grouping pass is
// needed, unlike the unit matcher's owner array.
func (m *WeightedMatcher) recomputeReach() {
	m.reach.CopyFrom(m.unserved)
	for k := 0; k < m.stations; k++ {
		m.sat[k] = false
	}
	for changed := true; changed; {
		changed = false
		for k := 0; k < m.stations; k++ {
			if m.sat[k] {
				continue
			}
			base := k * m.numNodes
			hit := false
			for _, u := range m.elig[k] {
				if m.reach.Has(u) && m.flow[base+u] < int32(m.weight[u]) {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			m.sat[k] = true
			changed = true
			for _, u := range m.elig[k] {
				if m.flow[base+u] > 0 {
					m.reach.Set(u)
				}
			}
		}
	}
	m.reachValid = true
}
