package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/verify"
)

// TestOracleEquivalence proves the incremental matcher behind the default
// placement oracle is a drop-in replacement for the Dinic-based reference
// engine: on every seed of the differential corpus, Approx and
// ApproxReference produce identical deployments — same served count, same
// locations, same per-UAV assignment.
func TestOracleEquivalence(t *testing.T) {
	t.Parallel()
	seeds := int64(60)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			sc, err := verify.RandomScenario(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			in, err := core.NewInstance(sc)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			opts := core.Options{S: min(2, sc.K()), Workers: 2}
			fast, err := core.Approx(context.Background(), in, opts)
			if err != nil {
				t.Fatalf("seed %d: matcher oracle: %v", seed, err)
			}
			ref, err := core.ApproxReference(context.Background(), in, opts)
			if err != nil {
				t.Fatalf("seed %d: reference oracle: %v", seed, err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("seed %d: oracles diverge:\nmatcher:   %+v\nreference: %+v", seed, fast, ref)
			}
		})
	}
}
