package portfolio

import (
	"math"

	"github.com/uav-coverage/uavnet/internal/core"
)

// annealSolver is simulated annealing with a geometric cooling schedule. The
// temperature is a pure function of the step index — T(t) = T0 · α^t with α
// chosen so T reaches tMin exactly when the evaluation budget would be spent
// at one evaluation per step — never of the wall clock (the timenow analyzer
// enforces as much package-wide). Downhill moves are accepted with
// probability exp(Δ/T), the classical escape hatch out of local optima.
type annealSolver struct {
	*search
	t0, alpha float64
}

const annealTMin = 0.05

func newAnneal(s *search) *annealSolver {
	// T0 scales with the objective: a handful of served users should be an
	// acceptable initial downhill step. CoverageUpperBound is min(n, total
	// capacity), so 5% of it tracks the realistic score range.
	t0 := 0.05 * float64(s.p.in.CoverageUpperBound())
	if t0 < 1 {
		t0 = 1
	}
	alpha := math.Pow(annealTMin/t0, 1/math.Max(1, float64(s.budget)))
	return &annealSolver{search: s, t0: t0, alpha: alpha}
}

// temperature returns T at step t: step-indexed geometric cooling.
func (a *annealSolver) temperature(t int64) float64 {
	T := a.t0 * math.Pow(a.alpha, float64(t))
	if T < annealTMin {
		T = annealTMin
	}
	return T
}

func (a *annealSolver) Step() (bool, error) {
	if a.remaining() <= 0 || a.steps >= a.stepCap() {
		return false, nil
	}
	a.steps++
	if a.cur == nil {
		return true, a.seed()
	}
	prop := a.propose()
	if prop == nil {
		return true, nil
	}
	served, err := a.evaluate(prop)
	if err != nil {
		return false, err
	}
	delta := float64(served - a.curServed)
	if delta >= 0 || a.rng.Float64() < math.Exp(delta/a.temperature(a.steps)) {
		a.accept(prop, served)
	}
	return true, nil
}

func (a *annealSolver) State() (core.SolverState, error) { return a.baseState(nil) }

func (a *annealSolver) Restore(st core.SolverState) error {
	_, err := a.restoreBase(st)
	return err
}
