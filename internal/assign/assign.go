// Package assign implements the optimal user-assignment subroutine of
// Section II-D (Lemma 1): given already-placed UAVs with service capacities
// and the set of users each UAV can serve (range + minimum data rate), find
// an assignment of users to UAVs that maximizes the number of served users,
// with each user served by at most one UAV and each UAV serving at most its
// capacity. The problem is solved exactly as an integral maximum flow.
//
// The package also provides an incremental evaluator that maintains a
// committed max-flow state and answers "how many extra users would one more
// UAV serve?" queries by augmenting on a clone, which keeps each query linear
// in the network size instead of re-solving from scratch.
//
// The greedy placement loop of Algorithm 2 now runs on internal/match's
// specialized bipartite matcher; Solve computes the final assignments, and
// Evaluator is the flow-based reference engine the matcher is verified
// against (FuzzAssignDifferential and internal/core's test-only
// TestOracleEquivalence, which drives the whole enumeration through it).
package assign

import (
	"fmt"

	"github.com/uav-coverage/uavnet/internal/flow"
)

// Unassigned marks a user not served by any station in an Assignment.
const Unassigned = -1

// Problem is one assignment instance: NumUsers ground users and one station
// per entry of Capacities; Eligible[k] lists the users station k can serve.
type Problem struct {
	NumUsers   int
	Capacities []int
	// Eligible[k] holds the indices (0..NumUsers-1) of users within range of
	// station k whose minimum data rate the station can meet.
	Eligible [][]int
}

// Validate checks structural consistency of the problem.
func (p Problem) Validate() error {
	if p.NumUsers < 0 {
		return fmt.Errorf("assign: negative user count %d", p.NumUsers)
	}
	if len(p.Capacities) != len(p.Eligible) {
		return fmt.Errorf("assign: %d capacities but %d eligibility lists",
			len(p.Capacities), len(p.Eligible))
	}
	for k, c := range p.Capacities {
		if c < 0 {
			return fmt.Errorf("assign: station %d has negative capacity %d", k, c)
		}
		for _, u := range p.Eligible[k] {
			if u < 0 || u >= p.NumUsers {
				return fmt.Errorf("assign: station %d lists user %d outside [0,%d)", k, u, p.NumUsers)
			}
		}
	}
	return nil
}

// Assignment is the result of solving a Problem.
type Assignment struct {
	// Served is the number of users assigned to some station.
	Served int
	// UserStation[i] is the station serving user i, or Unassigned.
	UserStation []int
	// PerStation[k] is the number of users assigned to station k.
	PerStation []int
}

// Solve computes an optimal assignment by integral max-flow (Lemma 1).
func Solve(p Problem) (Assignment, error) {
	if err := p.Validate(); err != nil {
		return Assignment{}, err
	}
	n, k := p.NumUsers, len(p.Capacities)
	// Node layout: 0 = source, 1 = sink, 2..2+n-1 users, 2+n.. stations.
	nw := flow.NewNetwork(2 + n + k)
	const s, t = 0, 1
	userNode := func(i int) int { return 2 + i }
	stationNode := func(j int) int { return 2 + n + j }

	srcEdges := make([]int, n)
	for i := 0; i < n; i++ {
		h, err := nw.AddEdge(s, userNode(i), 1)
		if err != nil {
			return Assignment{}, err
		}
		srcEdges[i] = h
	}
	type link struct {
		user, station, handle int
	}
	nLinks := 0
	for j := 0; j < k; j++ {
		nLinks += len(p.Eligible[j])
	}
	links := make([]link, 0, nLinks)
	for j := 0; j < k; j++ {
		for _, u := range p.Eligible[j] {
			h, err := nw.AddEdge(userNode(u), stationNode(j), 1)
			if err != nil {
				return Assignment{}, err
			}
			links = append(links, link{user: u, station: j, handle: h})
		}
		if _, err := nw.AddEdge(stationNode(j), t, p.Capacities[j]); err != nil {
			return Assignment{}, err
		}
	}
	served, err := nw.MaxFlow(s, t)
	if err != nil {
		return Assignment{}, err
	}
	out := Assignment{
		Served:      served,
		UserStation: make([]int, n),
		PerStation:  make([]int, k),
	}
	for i := range out.UserStation {
		out.UserStation[i] = Unassigned
	}
	for _, l := range links {
		if nw.Flow(l.handle) == 1 {
			out.UserStation[l.user] = l.station
			out.PerStation[l.station]++
		}
	}
	return out, nil
}

// Evaluator incrementally evaluates and commits station placements over a
// fixed user population. It is the marginal-gain oracle of the greedy in
// Algorithm 2: Gain answers what-if queries without mutating state, Commit
// fixes a placement.
type Evaluator struct {
	numUsers int
	base     *flow.Network
	served   int
	stations int
	maxSlots int
}

// NewEvaluator returns an evaluator for numUsers users and at most maxSlots
// committed stations.
func NewEvaluator(numUsers, maxSlots int) (*Evaluator, error) {
	if numUsers < 0 || maxSlots < 0 {
		return nil, fmt.Errorf("assign: invalid evaluator size (%d users, %d slots)", numUsers, maxSlots)
	}
	nw := flow.NewNetwork(2 + numUsers + maxSlots)
	for i := 0; i < numUsers; i++ {
		if _, err := nw.AddEdge(0, 2+i, 1); err != nil {
			return nil, err
		}
	}
	nw.MarkBaseline()
	return &Evaluator{numUsers: numUsers, base: nw, maxSlots: maxSlots}, nil
}

// Reset rewinds the evaluator to its fresh state (no committed stations),
// reusing the underlying network's memory. Use it to amortize construction
// across many independent placement evaluations over the same users.
func (e *Evaluator) Reset() error {
	if err := e.base.ResetToBaseline(); err != nil {
		return err
	}
	e.stations = 0
	e.served = 0
	return nil
}

// Served returns the number of users served by the committed stations.
func (e *Evaluator) Served() int { return e.served }

// Stations returns the number of committed stations.
func (e *Evaluator) Stations() int { return e.stations }

func (e *Evaluator) addStation(nw *flow.Network, capacity int, eligible []int) error {
	slot := 2 + e.numUsers + e.stations
	for _, u := range eligible {
		if u < 0 || u >= e.numUsers {
			return fmt.Errorf("assign: eligible user %d outside [0,%d)", u, e.numUsers)
		}
		if _, err := nw.AddEdge(2+u, slot, 1); err != nil {
			return err
		}
	}
	if _, err := nw.AddEdge(slot, 1, capacity); err != nil {
		return err
	}
	return nil
}

// Gain returns how many additional users would be served if a station with
// the given capacity and eligible-user list were added to the committed set.
// The committed state is not modified: the query runs speculatively on the
// committed network and is rolled back, which costs time proportional to
// the touched arcs rather than the network size.
func (e *Evaluator) Gain(capacity int, eligible []int) (int, error) {
	if e.stations >= e.maxSlots {
		return 0, fmt.Errorf("assign: all %d station slots committed", e.maxSlots)
	}
	if err := e.base.Begin(); err != nil {
		return 0, err
	}
	defer e.base.Rollback()
	if err := e.addStation(e.base, capacity, eligible); err != nil {
		return 0, err
	}
	gain, err := e.base.MaxFlow(0, 1)
	if err != nil {
		return 0, err
	}
	return gain, nil
}

// Commit adds the station to the committed set and returns its realized gain.
func (e *Evaluator) Commit(capacity int, eligible []int) (int, error) {
	if e.stations >= e.maxSlots {
		return 0, fmt.Errorf("assign: all %d station slots committed", e.maxSlots)
	}
	if err := e.addStation(e.base, capacity, eligible); err != nil {
		return 0, err
	}
	gain, err := e.base.MaxFlow(0, 1)
	if err != nil {
		return 0, err
	}
	e.stations++
	e.served += gain
	return gain, nil
}
