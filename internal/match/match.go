// Package match implements the incremental unit-capacity bipartite matcher
// behind the greedy placement oracle of Algorithm 2.
//
// The assignment network of Section II-D (Lemma 1) is not a general flow
// problem: every user has unit capacity and only stations carry larger
// capacities, so an optimal assignment is a maximum bipartite b-matching.
// The matcher exploits that structure directly. It maintains the committed
// served/unserved state as a plain owner array over the caller's precomputed
// eligibility lists and answers "how many extra users would one more station
// serve?" with capacity-capped Kuhn-style augmenting searches: each attempt
// walks alternating chains (station steals a served user, the victim's owner
// re-acquires elsewhere) until it frees up a previously-unserved user. There
// is no per-query edge construction, no residual-graph journaling beyond a
// flat owner journal, and no level-graph BFS over untouched parts of the
// network — the costs a max-flow solver pays on every what-if query.
//
// Correctness rests on two classical matching facts, both exercised by the
// package tests, including the differential fuzz target against
// assign.Solve:
//
//  1. Adding one station copy to a graph whose matching is maximum admits an
//     augmenting path only with the new copy as an endpoint, so searching
//     from the new station alone finds it.
//  2. A failed search leaves the matching untouched, and the station's cap
//     copies are interchangeable, so the first failed attempt ends the query.
//
// assign.Solve (Dinic over internal/flow) is the reference the matcher is
// verified against, here and in internal/core's TestOracleEquivalence.
package match

import (
	"fmt"
)

// Unassigned marks a user not served by any committed station.
const Unassigned = -1

// journalEntry records one owner-array mutation so speculative Gain queries
// can rewind: user reverts to prev.
type journalEntry struct {
	user, prev int32
}

// Matcher incrementally evaluates and commits station placements over a
// fixed user population: Gain answers what-if queries without mutating
// committed state, Commit realizes one.
// A Matcher must not be shared between goroutines.
//
//uavlint:scratch epoch=epoch tables=visited
type Matcher struct {
	numUsers int
	maxSlots int

	// owner[u] is the committed station serving user u, or Unassigned.
	owner    []int32
	served   int
	stations int

	// Committed per-station state; slot maxSlots is the scratch slot Gain
	// queries borrow, so the arrays hold maxSlots+1 entries.
	elig [][]int // borrowed from the caller, never mutated
	load []int

	// Epoch-stamped visited marks: visited[u] == epoch means user u was seen
	// by the current augmenting attempt, so attempts never pay a clearing
	// pass.
	visited []uint64
	epoch   uint64

	// unserved tracks users with no owner; reach additionally includes every
	// served user whose owner can re-acquire a replacement through an
	// alternating chain (see recomputeReach). reach is recomputed lazily
	// after commits invalidate it.
	unserved   Bitset
	reach      Bitset
	reachValid bool

	// recomputeReach scratch: satisfiable marks per station, plus the served
	// users grouped by owner (counting-sort layout).
	sat         []bool
	servedByOff []int32
	servedByBuf []int32

	// Speculative-query journal.
	journal    []journalEntry
	journaling bool
}

// NewMatcher returns a matcher for numUsers users and at most maxSlots
// committed stations.
func NewMatcher(numUsers, maxSlots int) (*Matcher, error) {
	if numUsers < 0 || maxSlots < 0 {
		return nil, fmt.Errorf("match: invalid matcher size (%d users, %d slots)", numUsers, maxSlots)
	}
	m := &Matcher{
		numUsers:    numUsers,
		maxSlots:    maxSlots,
		owner:       make([]int32, numUsers),
		elig:        make([][]int, maxSlots+1),
		load:        make([]int, maxSlots+1),
		visited:     make([]uint64, numUsers),
		unserved:    NewBitset(numUsers),
		reach:       NewBitset(numUsers),
		sat:         make([]bool, maxSlots+1),
		servedByOff: make([]int32, maxSlots+2),
		servedByBuf: make([]int32, numUsers),
	}
	for i := range m.owner {
		m.owner[i] = Unassigned
	}
	m.unserved.Fill(numUsers)
	return m, nil
}

// Reset rewinds the matcher to its fresh state (no committed stations),
// reusing all memory. Use it to amortize construction across many
// independent placement evaluations over the same users.
func (m *Matcher) Reset() error {
	for i := range m.owner {
		m.owner[i] = Unassigned
	}
	m.unserved.Fill(m.numUsers)
	for k := 0; k < m.stations; k++ {
		m.elig[k] = nil
	}
	m.stations = 0
	m.served = 0
	m.reachValid = false
	return nil
}

// Served returns the number of users served by the committed stations.
func (m *Matcher) Served() int { return m.served }

// checkStation validates a Gain/Commit request: a free slot must remain, the
// capacity must be non-negative, and every eligible user must be in range.
func (m *Matcher) checkStation(capacity int, eligible []int) error {
	if m.stations >= m.maxSlots {
		return fmt.Errorf("match: all %d station slots committed", m.maxSlots)
	}
	if capacity < 0 {
		return fmt.Errorf("match: negative capacity %d", capacity)
	}
	for _, u := range eligible {
		if u < 0 || u >= m.numUsers {
			return fmt.Errorf("match: eligible user %d outside [0,%d)", u, m.numUsers)
		}
	}
	return nil
}

// assign makes station k the owner of user u, journaling the previous owner
// when a speculative query is active.
func (m *Matcher) assign(u, k int) {
	if m.journaling {
		m.journal = append(m.journal, journalEntry{user: int32(u), prev: m.owner[u]})
	}
	if m.owner[u] == Unassigned {
		m.unserved.Clear(u)
	}
	m.owner[u] = int32(k)
}

// tryServe finds one augmenting alternating chain giving station k one more
// served user: either an unserved eligible user directly, or a served one
// whose owner can recursively re-acquire a replacement. It returns false
// without mutating any state (assignments happen only while unwinding a
// successful chain).
func (m *Matcher) tryServe(k int) bool {
	for _, u := range m.elig[k] {
		if m.visited[u] == m.epoch {
			continue
		}
		m.visited[u] = m.epoch
		owner := int(m.owner[u])
		if owner == k {
			continue // already ours; stealing from ourselves gains nothing
		}
		if owner == Unassigned || m.tryServe(owner) {
			m.assign(u, k)
			return true
		}
	}
	return false
}

// augment runs capacity-capped augmenting attempts for slot k and returns
// the number that succeeded. The station's cap copies are interchangeable
// and a failed attempt leaves the matching untouched, so the first failure
// ends the loop.
func (m *Matcher) augment(k, capacity int) int {
	g := 0
	for g < capacity {
		m.epoch++
		if !m.tryServe(k) {
			break
		}
		g++
	}
	return g
}

// Gain returns how many additional users would be served if a station with
// the given capacity and eligible-user list were added to the committed set.
// The committed state is not modified: the query augments in place and then
// rewinds through the owner journal, which costs time proportional to the
// alternating chains actually walked.
func (m *Matcher) Gain(capacity int, eligible []int) (int, error) {
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
		if e.prev == Unassigned {
			m.unserved.Set(int(e.user))
		}
		m.owner[e.user] = e.prev
	}
	m.journal = m.journal[:0]
	m.elig[k] = nil
	return g, nil
}

// Commit adds the station to the committed set and returns its realized gain.
func (m *Matcher) Commit(capacity int, eligible []int) (int, error) {
	if err := m.checkStation(capacity, eligible); err != nil {
		return 0, err
	}
	k := m.stations
	m.elig[k] = eligible
	// Later commits may steal users from k, but every steal forces the thief
	// to hand k a replacement through the same chain, so k's load is fixed at
	// commit time.
	m.load[k] = m.augment(k, capacity)
	m.served += m.load[k]
	m.stations++
	m.reachValid = false
	return m.load[k], nil
}

// GainBound returns min(capacity, |eligMask ∩ reach|), a sound upper bound
// on what Gain would return for a station with that capacity and an eligible
// set whose bitset is eligMask. It costs a few popcounts (plus a lazy reach
// recomputation after a commit) — no augmenting work.
//
// reach, not unserved, is what makes the bound sound. Every augmenting chain
// opened by a new station enters through a distinct eligible user u, and u
// need not be unserved: the chain may steal u and let u's owner re-acquire a
// replacement, ultimately serving an unserved user that is NOT eligible to
// the new station. (Station k with capacity 1 and eligibility {u1, u2}
// serving u1: a new station eligible only for {u1} still gains 1 — it takes
// u1 and k picks up u2.) So |eligible ∩ unserved| under-counts and pruning
// with it would change results. The correct per-user question is "could an
// augmenting chain start here?", which is exactly u ∈ reach: u unserved, or
// u's owner able to re-acquire through alternating chains. The chains of a
// maximum augmentation are vertex-disjoint, so the gain is at most the
// number of such entry users.
func (m *Matcher) GainBound(capacity int, eligMask Bitset) int {
	if !m.reachValid {
		m.recomputeReach()
	}
	b := AndCount(eligMask, m.reach)
	if capacity < b {
		b = capacity
	}
	return b
}

// recomputeReach rebuilds the alternating-reachability set: a user is in
// reach iff it is unserved, or its owner is "satisfiable" — able to acquire
// one more net user through an alternating chain. Station satisfiability is
// the fixpoint of: k is satisfiable iff some eligible user of k is in reach
// and not already served by k. Each sweep below either marks a new station
// satisfiable or terminates, so the loop runs at most stations+1 sweeps over
// the committed eligibility lists plus one O(n) grouping pass.
func (m *Matcher) recomputeReach() {
	m.reach.CopyFrom(m.unserved)
	// Group served users by owner (counting sort) so a newly satisfiable
	// station flips its users into reach without an O(n) scan per station.
	off := m.servedByOff[:m.stations+2]
	for i := range off {
		off[i] = 0
	}
	for _, k := range m.owner {
		if k != Unassigned {
			off[k+2]++
		}
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	for u, k := range m.owner {
		if k != Unassigned {
			m.servedByBuf[off[k+1]] = int32(u)
			off[k+1]++
		}
	}
	for k := 0; k < m.stations; k++ {
		m.sat[k] = false
	}
	for changed := true; changed; {
		changed = false
		for k := 0; k < m.stations; k++ {
			if m.sat[k] {
				continue
			}
			hit := false
			for _, u := range m.elig[k] {
				if m.reach.Has(u) && int(m.owner[u]) != k {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			m.sat[k] = true
			changed = true
			for _, u := range m.servedByBuf[off[k]:off[k+1]] {
				m.reach.Set(int(u))
			}
		}
	}
	m.reachValid = true
}
