package core

// SolveAggregate and CheckDeploymentFeasible serve the external aggregation
// tests, which build scenarios through internal/workload (a package that
// imports this one).
var (
	SolveAggregate          = solveAggregate
	CheckDeploymentFeasible = checkDeploymentFeasible
)

// GainEngine is the evaluator's gain-engine contract, for reference engines
// the external tests build.
type GainEngine = gainEngine

// SwapEngine makes e score its placements through engine instead of its
// matcher. The greedy's dynamic bound then comes from engine's GainBound,
// which must be sound; sound bounds of any tightness leave the selection to
// engine's gains alone.
func (e *SubsetEvaluator) SwapEngine(engine GainEngine) { e.engine = engine }
