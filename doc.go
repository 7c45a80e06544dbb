// Package uavnet deploys heterogeneous UAV communication networks for
// maximum connected coverage, implementing the algorithms of
//
//	Li, Xiang, Xu, Peng, Xu, Li, Liang, Jia.
//	"Coverage Maximization of Heterogeneous UAV Networks."
//	IEEE ICDCS 2023. DOI 10.1109/ICDCS57875.2023.00026.
//
// A disaster area holds n ground users; K UAVs with different service
// capacities C_k, transmission powers and coverage radii must hover on a
// grid of candidate locations so that the number of served users is
// maximized while (i) every served user meets its minimum data rate,
// (ii) no UAV exceeds its capacity, and (iii) the UAV-to-UAV network is
// connected.
//
// # Quick start
//
//	spec := uavnet.ScenarioSpec{N: 1000, K: 10, Seed: 42}
//	sc, err := uavnet.GenerateScenario(spec)
//	if err != nil { ... }
//	dep, err := uavnet.DeployContext(ctx, sc, uavnet.Options{S: 3})
//	if err != nil { ... }
//	fmt.Println("served:", dep.Served)
//
// DeployContext runs the paper's O(sqrt(s/K))-approximation algorithm
// (approAlg) under a context that can stop it. DeployWithContext selects one
// of the reimplemented baselines (MCS, MotionCtrl, GreedyAssign,
// maxThroughput) for comparison, and EvaluatePlacement scores any
// hand-chosen placement with the optimal max-flow user assignment.
//
// The packages under internal/ hold the substrates: the air-to-ground
// channel model, max-flow assignment, matroid machinery, workload
// generators, a per-UAV queueing simulator, and user-mobility models. The
// root package re-exports everything a downstream application needs.
package uavnet
