package core

import (
	"fmt"
	"math"

	"github.com/uav-coverage/uavnet/internal/assign"
	"github.com/uav-coverage/uavnet/internal/geom"
)

// RefineAssignment recomputes a deployment's user assignment so that the
// served-user count is unchanged (it stays the Lemma 1 optimum for the
// placement) but, among all maximum assignments, the total UAV-to-user mean
// pathloss is minimized. Lower aggregate pathloss means higher average SNR
// and therefore higher realized data rates for the same coverage figure —
// an operational refinement the paper's objective leaves open.
//
// It returns the refined deployment and the total pathloss in milli-dB.
func RefineAssignment(in *Instance, dep *Deployment) (*Deployment, int64, error) {
	sc := in.Scenario
	if in.Aggregated() {
		// Pathloss costs are per individual user position; the demand-cell
		// relaxation has no well-defined per-node cost.
		return nil, 0, fmt.Errorf("core: RefineAssignment supports only per-user instances")
	}
	if len(dep.LocationOf) != sc.K() {
		return nil, 0, fmt.Errorf("core: deployment has %d UAVs, scenario %d", len(dep.LocationOf), sc.K())
	}
	var deployed, locs []int
	for uav, loc := range dep.LocationOf {
		if loc >= 0 {
			deployed = append(deployed, uav)
			locs = append(locs, loc)
		}
	}
	alt := sc.Grid.Altitude
	cost := func(user, station int) int64 {
		horiz := geom.Dist2(sc.Users[user].Pos, in.Centers[locs[station]])
		pl := sc.Channel.AirToGroundPathLossDB(horiz, alt)
		return int64(math.Round(pl * 1000)) // milli-dB keeps integer costs precise
	}
	a, totalMilliDB, err := assign.SolveMinCost(placementProblem(in, deployed, locs), cost)
	if err != nil {
		return nil, 0, err
	}
	out := &Deployment{
		Algorithm:        dep.Algorithm + "+minPL",
		LocationOf:       append([]int(nil), dep.LocationOf...),
		Served:           a.Served,
		Anchors:          append([]int(nil), dep.Anchors...),
		Budget:           dep.Budget,
		SubsetsEvaluated: dep.SubsetsEvaluated,
		SubsetsPruned:    dep.SubsetsPruned,
		Assignment:       byUAV(in, a, deployed),
	}
	return out, totalMilliDB, nil
}

// TotalPathlossMilliDB sums the mean pathloss (milli-dB) over a
// deployment's assigned links; RefineAssignment minimizes this quantity.
func TotalPathlossMilliDB(in *Instance, dep *Deployment) (int64, error) {
	sc := in.Scenario
	alt := sc.Grid.Altitude
	var total int64
	for user, uav := range dep.Assignment.UserStation {
		if uav == assign.Unassigned {
			continue
		}
		loc := dep.LocationOf[uav]
		if loc < 0 {
			return 0, fmt.Errorf("core: user %d assigned to grounded UAV %d", user, uav)
		}
		horiz := geom.Dist2(sc.Users[user].Pos, in.Centers[loc])
		total += int64(math.Round(sc.Channel.AirToGroundPathLossDB(horiz, alt) * 1000))
	}
	return total, nil
}
