package core

import (
	"context"

	"github.com/uav-coverage/uavnet/internal/assign"
)

// newReferenceOracle builds a placement oracle over the Dinic-backed
// assign.Evaluator: exact like the matcher but built from independent
// machinery, which makes it the reference engine for differential tests and
// the dinic leg of BenchmarkOracleGain. It scores unit users, so it supports
// per-user instances only.
func newReferenceOracle(in *Instance, caps []int) (*placementOracle, error) {
	ev, err := assign.NewEvaluator(in.Scenario.N(), len(caps))
	if err != nil {
		return nil, err
	}
	return &placementOracle{in: in, caps: caps, engine: ev}, nil
}

// ApproxReference is Approx with every worker's greedy driven by the
// reference engine instead of the incremental matcher.
func ApproxReference(ctx context.Context, in *Instance, opts Options) (*Deployment, error) {
	return approx(ctx, in, opts, newReferenceOracle)
}

// SolveAggregate and CheckDeploymentFeasible serve the external aggregation
// tests, which build scenarios through internal/workload (a package that
// imports this one).
var (
	SolveAggregate          = solveAggregate
	CheckDeploymentFeasible = checkDeploymentFeasible
)
