// Package assign implements the optimal user-assignment subroutine of
// Section II-D (Lemma 1): given already-placed UAVs with service capacities
// and the set of users each UAV can serve (range + minimum data rate), find
// an assignment of users to UAVs that maximizes the number of served users,
// with each user served by at most one UAV and each UAV serving at most its
// capacity. The problem is solved exactly as an integral maximum flow.
//
// The greedy placement loop of Algorithm 2 runs on internal/match's
// specialized bipartite matcher; Solve computes the final assignments, and
// the tests use it as the reference the matcher is checked against
// (internal/match's FuzzAssignDifferential and internal/core's
// TestOracleEquivalence).
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
	nw := flow.NewNetwork(2 + p.NumUsers + len(p.Capacities))
	links, err := build(p, nil, func(u, v, capacity int, _ int64) (int, error) {
		return nw.AddEdge(u, v, capacity)
	})
	if err != nil {
		return Assignment{}, err
	}
	served, err := nw.MaxFlow(source, sink)
	if err != nil {
		return Assignment{}, err
	}
	return readBack(p, served, links, nw.Flow), nil
}

// Node layout of the network Solve and SolveMinCost share: the source, the
// sink, then one node per user and one per station.
const source, sink = 0, 1

// link is one user→station edge and the handle its flow is read through.
type link struct {
	user, station, handle int
}

// build adds the assignment network's edges through add in one fixed
// order: every source→user edge, then per station its user→station links
// and its station→sink edge. That order fixes which maximum flow each
// engine returns. A link costs cost(user, station), or zero when cost is
// nil; every other edge costs zero.
func build(p Problem, cost LinkCost, add func(u, v, capacity int, cost int64) (int, error)) ([]link, error) {
	n := p.NumUsers
	for i := 0; i < n; i++ {
		if _, err := add(source, 2+i, 1, 0); err != nil {
			return nil, err
		}
	}
	nLinks := 0
	for _, elig := range p.Eligible {
		nLinks += len(elig)
	}
	links := make([]link, 0, nLinks)
	for j, elig := range p.Eligible {
		station := 2 + n + j
		for _, u := range elig {
			var c int64
			if cost != nil {
				if c = cost(u, j); c < 0 {
					return nil, fmt.Errorf("assign: negative cost %d for user %d station %d", c, u, j)
				}
			}
			h, err := add(2+u, station, 1, c)
			if err != nil {
				return nil, err
			}
			links = append(links, link{user: u, station: j, handle: h})
		}
		if _, err := add(station, sink, p.Capacities[j], 0); err != nil {
			return nil, err
		}
	}
	return links, nil
}

// readBack reads the assignment off a maximum flow of value served: a user
// is served by the station whose link carries flow.
func readBack(p Problem, served int, links []link, flow func(handle int) int) Assignment {
	out := Assignment{
		Served:      served,
		UserStation: make([]int, p.NumUsers),
		PerStation:  make([]int, len(p.Capacities)),
	}
	for i := range out.UserStation {
		out.UserStation[i] = Unassigned
	}
	for _, l := range links {
		if flow(l.handle) == 1 {
			out.UserStation[l.user] = l.station
			out.PerStation[l.station]++
		}
	}
	return out
}
