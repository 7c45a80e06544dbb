package uavnet

import (
	"github.com/uav-coverage/uavnet/internal/workload"
)

// ScenarioSpec describes a synthetic scenario to generate. Zero fields take
// the paper's Section IV-A defaults: a 3x3 km area on a 500 m grid at 300 m
// altitude, 3000 fat-tailed users with a 2 kbps rate requirement, and 20
// UAVs with capacities uniform in [50, 300], R_uav = 600 m, R_user = 500 m.
type ScenarioSpec = workload.Params

// User-placement distributions for ScenarioSpec.Distribution.
const (
	// FatTailed clusters users with Zipf-distributed masses (the paper's
	// evaluation workload).
	FatTailed = workload.FatTailed
	// UniformUsers scatters users uniformly.
	UniformUsers = workload.Uniform
	// SingleHotspot concentrates users around one Gaussian hotspot.
	SingleHotspot = workload.SingleHotspot
)

// GenerateScenario builds a synthetic scenario from the spec. Equal specs
// (including Seed) generate identical scenarios.
func GenerateScenario(spec ScenarioSpec) (*Scenario, error) {
	return workload.BuildScenario(spec)
}

// GenerateInstance is GenerateScenario plus precomputation, in one step.
func GenerateInstance(spec ScenarioSpec) (*Instance, error) {
	sc, err := GenerateScenario(spec)
	if err != nil {
		return nil, err
	}
	return NewInstance(sc)
}

// GenerateAggregateInstance is GenerateScenario plus demand aggregation
// (NewAggregateInstance) in one step — the million-user path. Set
// spec.SnapSide to the demand-cell side to generate a workload on which
// aggregation is provably exact.
func GenerateAggregateInstance(spec ScenarioSpec, opts AggregateOptions) (*Instance, error) {
	sc, err := GenerateScenario(spec)
	if err != nil {
		return nil, err
	}
	return NewAggregateInstance(sc, opts)
}
