package core

// SolveAggregate and CheckDeploymentFeasible serve the external aggregation
// tests, which build scenarios through internal/workload (a package that
// imports this one).
var (
	SolveAggregate          = solveAggregate
	CheckDeploymentFeasible = checkDeploymentFeasible
)

// GainEngine is the placement oracle's gain-engine contract, for reference
// engines the external tests build.
type GainEngine = gainEngine

// SwapEngine makes e score its placements through engine instead of its
// matcher. RoundBound keeps reading the evaluator's own matcher, which the
// swapped oracle never commits to, so the greedy's dynamic bound becomes
// the static min(capacity, eligible users): sound, and sound bounds of any
// tightness leave the selection to engine's gains alone.
func (e *SubsetEvaluator) SwapEngine(engine GainEngine) { e.oracle.engine = engine }
