package core

import (
	"fmt"

	"github.com/uav-coverage/uavnet/internal/assign"
)

// EvaluateFixed scores a caller-chosen placement: locationOf[k] is the cell
// of UAV k or -1 for a grounded UAV. It computes the optimal user assignment
// (Section II-D) for the placement and returns a Deployment with Served and
// Assignment filled in. Connectivity is the caller's responsibility — use
// Instance.LocGraph.Connected on the deployed locations to check it; the
// baselines and the brute-force solver all construct connected placements.
//
// It returns an error if two UAVs share a cell or a location is out of range.
func EvaluateFixed(in *Instance, locationOf []int) (*Deployment, error) {
	sc := in.Scenario
	if len(locationOf) != sc.K() {
		return nil, fmt.Errorf("core: placement has %d entries for %d UAVs", len(locationOf), sc.K())
	}
	seen := map[int]int{}
	var deployed, locs []int
	for uav, loc := range locationOf {
		if loc < 0 {
			continue
		}
		if loc >= sc.M() {
			return nil, fmt.Errorf("core: UAV %d placed at cell %d outside [0,%d)", uav, loc, sc.M())
		}
		if prev, dup := seen[loc]; dup {
			return nil, fmt.Errorf("core: UAVs %d and %d share cell %d", prev, uav, loc)
		}
		seen[loc] = uav
		deployed = append(deployed, uav)
		locs = append(locs, loc)
	}
	a, err := assignPlacement(in, deployed, locs)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		LocationOf: append([]int(nil), locationOf...),
		Served:     a.Served,
		Assignment: a,
	}, nil
}

// assignPlacement computes the optimal user assignment (Section II-D) for
// UAV uavs[i] hovering at locs[i], indexed by original UAV. On aggregated
// instances the assignment comes from the weighted b-matcher and is
// expanded to per-user form by solveAggregate.
func assignPlacement(in *Instance, uavs, locs []int) (assign.Assignment, error) {
	p := placementProblem(in, uavs, locs)
	var a assign.Assignment
	var err error
	if in.Aggregated() {
		a, err = solveAggregate(in, p.Capacities, p.Eligible)
	} else {
		a, err = assign.Solve(p)
	}
	if err != nil {
		return assign.Assignment{}, err
	}
	return byUAV(in, a, uavs), nil
}

// placementProblem is the assignment problem of UAV uavs[i] hovering at
// locs[i]. Station i is uavs[i], and that order fixes which maximum
// assignment a solver returns.
func placementProblem(in *Instance, uavs, locs []int) assign.Problem {
	sc := in.Scenario
	p := assign.Problem{
		NumUsers:   sc.N(),
		Capacities: make([]int, len(locs)),
		Eligible:   make([][]int, len(locs)),
	}
	for i, uav := range uavs {
		p.Capacities[i] = sc.UAVs[uav].Capacity
		p.Eligible[i] = in.EligibleUsers(uav, locs[i])
	}
	return p
}

// byUAV re-indexes an assignment of placementProblem(in, uavs, locs) from
// station i to original UAV uavs[i], in place: the solvers return fresh
// per-user slices.
func byUAV(in *Instance, a assign.Assignment, uavs []int) assign.Assignment {
	perStation := make([]int, in.Scenario.K())
	for i, st := range a.UserStation {
		if st != assign.Unassigned {
			a.UserStation[i] = uavs[st]
			perStation[uavs[st]]++
		}
	}
	a.PerStation = perStation
	return a
}
