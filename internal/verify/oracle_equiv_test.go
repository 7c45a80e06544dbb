package verify

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/uav-coverage/uavnet/internal/core"
)

// TestOracleEquivalence checks, on every differential seed, that the
// incremental matcher's score of the winning anchor subset (what
// core.SubsetEvaluator reports, and what the enumeration ranks subsets by)
// equals the served count of the deployment's final max-flow assignment,
// over the same placement. The per-subset comparison against assign.Solve
// lives in internal/core's TestOracleEquivalence.
func TestOracleEquivalence(t *testing.T) {
	t.Parallel()
	seeds := int64(diffSeeds)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			sc, err := RandomScenario(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			in, err := core.NewInstance(sc)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			opts := core.Options{S: min(2, sc.K()), Workers: 2}
			dep, err := core.Approx(context.Background(), in, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ev, err := core.NewSubsetEvaluator(in, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := ev.Evaluate(dep.Anchors)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !res.Feasible || res.Served != dep.Served {
				t.Fatalf("seed %d: matcher scores the winner %d (feasible %v), max-flow assignment serves %d",
					seed, res.Served, res.Feasible, dep.Served)
			}
			rebuilt, err := ev.BuildDeployment(dep.Anchors)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !reflect.DeepEqual(rebuilt.LocationOf, dep.LocationOf) || !reflect.DeepEqual(rebuilt.Assignment, dep.Assignment) {
				t.Fatalf("seed %d: re-evaluated winner differs:\nApprox:    %+v\nevaluator: %+v", seed, dep, rebuilt)
			}
		})
	}
}
