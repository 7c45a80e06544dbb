package assign

import (
	"fmt"

	"github.com/uav-coverage/uavnet/internal/flow"
)

// LinkCost returns the non-negative cost of serving a user from a station;
// the deployment library uses the link's mean pathloss in milli-dB so that
// integer costs retain three decimals of precision.
type LinkCost func(user, station int) int64

// SolveMinCost computes an assignment that first maximizes the number of
// served users (exactly as Solve, Lemma 1) and, among all such maximum
// assignments, minimizes the total link cost. It reduces to a minimum-cost
// maximum flow: successive shortest paths yield the cheapest flow of every
// value, so the final max flow is also cost-minimal.
func SolveMinCost(p Problem, cost LinkCost) (Assignment, int64, error) {
	if err := p.Validate(); err != nil {
		return Assignment{}, 0, err
	}
	if cost == nil {
		return Assignment{}, 0, fmt.Errorf("assign: nil cost function")
	}
	cn := flow.NewCostNetwork(2 + p.NumUsers + len(p.Capacities))
	links, err := build(p, cost, cn.AddEdge)
	if err != nil {
		return Assignment{}, 0, err
	}
	served, totalCost, err := cn.MinCostMaxFlow(source, sink)
	if err != nil {
		return Assignment{}, 0, err
	}
	return readBack(p, served, links, cn.Flow), totalCost, nil
}
