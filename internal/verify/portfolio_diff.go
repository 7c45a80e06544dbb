package verify

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/portfolio"
)

// PortfolioDifferential runs every portfolio member plus the full race on the
// random scenario seeded by seed, each under budget evaluations, and checks
// the results against two oracles:
//
//   - feasibility: every deployment must pass CheckDeployment — the members
//     finalize through the same exact pipeline as the enumeration, so a
//     violation here is a bug, not a heuristic shortfall;
//   - quality: no member may serve more users than the exhaustive
//     enumeration (they search the same admissible anchor region), and with
//     exhaustive set — budget generous enough to cover the whole region on
//     these tiny instances — every member must match the enumeration's
//     served count exactly.
//
// Any violation comes back as an error naming the seed so the failure
// replays exactly, mirroring Differential.
func PortfolioDifferential(ctx context.Context, seed int64, budget int64, exhaustive bool) ([]DiffResult, error) {
	in, s, err := portfolioScenario(seed)
	if err != nil {
		return nil, err
	}

	apx, err := core.Approx(ctx, in, core.Options{S: s, Workers: 2})
	if err != nil {
		return nil, fmt.Errorf("seed %d: approAlg: %w", seed, err)
	}

	var results []DiffResult
	for _, name := range append(portfolio.Members(), "portfolio") {
		dep, err := portfolio.Race(ctx, in, core.Options{
			S: s, Solver: name, SolverBudget: budget, Seed: seed,
		})
		if err != nil {
			return results, fmt.Errorf("seed %d: %s: %w", seed, name, err)
		}
		rep := CheckDeployment(in, dep)
		results = append(results, DiffResult{Algorithm: name, Served: dep.Served, Report: rep})
		if !rep.OK() {
			return results, fmt.Errorf("seed %d: %s: %s", seed, name, rep)
		}
		if dep.Served > apx.Served {
			return results, fmt.Errorf("seed %d: %s served %d > exhaustive enumeration %d",
				seed, name, dep.Served, apx.Served)
		}
		if exhaustive && dep.Served < apx.Served {
			return results, fmt.Errorf("seed %d: %s served %d < exhaustive enumeration %d under an exhaustive budget of %d",
				seed, name, dep.Served, apx.Served, budget)
		}
	}
	return results, nil
}

// portfolioScenario builds the differential scenario for seed: the same
// generator Differential uses, with s capped to the fleet size.
func portfolioScenario(seed int64) (*core.Instance, int, error) {
	r := rand.New(rand.NewSource(seed))
	sc, err := RandomScenario(r)
	if err != nil {
		return nil, 0, fmt.Errorf("seed %d: generate: %w", seed, err)
	}
	in, err := core.NewInstance(sc)
	if err != nil {
		return nil, 0, fmt.Errorf("seed %d: instance: %w", seed, err)
	}
	s := 2
	if s > sc.K() {
		s = sc.K()
	}
	return in, s, nil
}
