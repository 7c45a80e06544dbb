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
	n, k := p.NumUsers, len(p.Capacities)
	// Node layout: 0 = source, 1 = sink, 2..2+n-1 users, 2+n.. stations.
	nw := flow.NewNetwork(2 + n + k)
	const s, t = 0, 1
	userNode := func(i int) int { return 2 + i }
	stationNode := func(j int) int { return 2 + n + j }

	for i := 0; i < n; i++ {
		if _, err := nw.AddEdge(s, userNode(i), 1); err != nil {
			return Assignment{}, err
		}
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
