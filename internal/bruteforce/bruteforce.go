// Package bruteforce solves the maximum connected coverage problem exactly
// by exhaustive enumeration. It exists to validate the approximation
// algorithm: integration tests compare core.Approx against the true optimum
// on tiny instances and check the Theorem 1 ratio.
//
// The search enumerates every connected location subset of size at most K
// and, for each, every injective mapping of UAVs onto the chosen locations,
// scoring each candidate with the optimal max-flow assignment. Runtime is
// exponential; callers must keep m and K tiny (the package refuses instances
// beyond hard safety limits).
package bruteforce

import (
	"fmt"
	"math/bits"

	"github.com/uav-coverage/uavnet/internal/assign"
	"github.com/uav-coverage/uavnet/internal/core"
)

// Limits protect against accidentally running the exponential search on a
// real instance.
const (
	maxLocations = 16
	maxUAVs      = 6
)

// Optimal returns an exact optimum deployment for the instance. Aggregated
// instances are rejected: the exact optimum is defined over individual
// users, and the conservative aggregated relaxation would not be it.
func Optimal(in *core.Instance) (*core.Deployment, error) {
	if in.Aggregated() {
		return nil, fmt.Errorf("bruteforce: aggregated instances are not supported; build a per-user instance")
	}
	sc := in.Scenario
	m, k := sc.M(), sc.K()
	if m > maxLocations {
		return nil, fmt.Errorf("bruteforce: %d locations exceed the safety limit %d", m, maxLocations)
	}
	if k > maxUAVs {
		return nil, fmt.Errorf("bruteforce: %d UAVs exceed the safety limit %d", k, maxUAVs)
	}

	best := -1
	var bestLocs []int // location per UAV index, -1 = grounded
	upper := in.CoverageUpperBound()

	for mask := 0; mask < 1<<m; mask++ {
		q := bits.OnesCount(uint(mask))
		if q == 0 || q > k {
			continue
		}
		locs := locsOf(mask, m)
		if !in.LocGraph.Connected(locs) {
			continue
		}
		// Try every injective assignment of UAVs to the chosen locations.
		perm := make([]int, 0, q)
		usedUAV := make([]bool, k)
		var rec func(pos int)
		rec = func(pos int) {
			if best == upper {
				return // cannot improve
			}
			if pos == q {
				served, err := evaluate(in, locs, perm)
				if err != nil {
					return
				}
				if served > best {
					best = served
					bestLocs = make([]int, k)
					for i := range bestLocs {
						bestLocs[i] = -1
					}
					for i, uav := range perm {
						bestLocs[uav] = locs[i]
					}
				}
				return
			}
			for uav := 0; uav < k; uav++ {
				if usedUAV[uav] {
					continue
				}
				usedUAV[uav] = true
				perm = append(perm, uav)
				rec(pos + 1)
				perm = perm[:len(perm)-1]
				usedUAV[uav] = false
			}
		}
		rec(0)
	}
	if best < 0 {
		return nil, fmt.Errorf("bruteforce: no connected placement exists")
	}

	dep, err := core.EvaluateFixed(in, bestLocs)
	if err != nil {
		return nil, err
	}
	dep.Algorithm = "bruteforce"
	return dep, nil
}

func locsOf(mask, m int) []int {
	var locs []int
	for j := 0; j < m; j++ {
		if mask&(1<<j) != 0 {
			locs = append(locs, j)
		}
	}
	return locs
}

// evaluate scores one (locations, UAV permutation) candidate.
func evaluate(in *core.Instance, locs []int, perm []int) (int, error) {
	p := assign.Problem{
		NumUsers:   in.Scenario.N(),
		Capacities: make([]int, len(locs)),
		Eligible:   make([][]int, len(locs)),
	}
	for i, loc := range locs {
		uav := perm[i]
		p.Capacities[i] = in.Scenario.UAVs[uav].Capacity
		p.Eligible[i] = in.EligibleUsers(uav, loc)
	}
	a, err := assign.Solve(p)
	if err != nil {
		return 0, err
	}
	return a.Served, nil
}
