package core_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/uav-coverage/uavnet/internal/assign"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/match"
	"github.com/uav-coverage/uavnet/internal/verify"
)

// solveEngine is a gain engine without incremental state: it keeps the
// committed stations as an assign.Problem and answers every query with a
// fresh max flow (Lemma 1), so a marginal gain is the difference of two
// assign.Solve calls.
type solveEngine struct {
	p      assign.Problem
	served int
}

func (e *solveEngine) Reset() error {
	e.p.Capacities, e.p.Eligible, e.served = e.p.Capacities[:0], e.p.Eligible[:0], 0
	return nil
}

func (e *solveEngine) Served() int { return e.served }

func (e *solveEngine) Gain(capacity int, eligible []int) (int, error) {
	p := e.p
	p.Capacities = append(slices.Clip(p.Capacities), capacity)
	p.Eligible = append(slices.Clip(p.Eligible), eligible)
	a, err := assign.Solve(p)
	if err != nil {
		return 0, err
	}
	return a.Served - e.served, nil
}

func (e *solveEngine) Commit(capacity int, eligible []int) (int, error) {
	g, err := e.Gain(capacity, eligible)
	if err != nil {
		return 0, err
	}
	e.p.Capacities = append(e.p.Capacities, capacity)
	e.p.Eligible = append(e.p.Eligible, eligible)
	e.served += g
	return g, nil
}

// GainBound is the bound a matcher with no committed station gives: the
// capacity, or every eligible user, whichever is fewer. It is sound at every
// round, since a station never serves more.
func (e *solveEngine) GainBound(capacity int, eligMask match.Bitset) int {
	return min(capacity, match.AndCount(eligMask, eligMask))
}

// nextSubset advances c, a sorted subset of {0..m-1}, to its lexicographic
// successor in place, reporting false after the last one.
func nextSubset(c []int, m int) bool {
	for i := len(c) - 1; i >= 0; i-- {
		if c[i] < m-len(c)+i {
			c[i]++
			for j := i + 1; j < len(c); j++ {
				c[j] = c[j-1] + 1
			}
			return true
		}
	}
	return false
}

// TestOracleEquivalence checks the incremental matcher behind the placement
// oracle against assign.Solve: on every seed of the differential corpus, a
// SubsetEvaluator whose gains come from max flows returns the same
// EvalResult as the matcher-backed one on every anchor subset — the same
// feasibility, greedy selection, relays, leftovers and served count.
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
			opts := core.Options{S: min(2, sc.K())}
			matcher, err := core.NewSubsetEvaluator(in, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ref, err := core.NewSubsetEvaluator(in, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ref.SwapEngine(&solveEngine{p: assign.Problem{NumUsers: sc.N()}})
			anchors := make([]int, matcher.S())
			for i := range anchors {
				anchors[i] = i
			}
			for {
				got, err := matcher.Evaluate(anchors)
				if err != nil {
					t.Fatalf("seed %d, anchors %v: matcher: %v", seed, anchors, err)
				}
				want, err := ref.Evaluate(anchors)
				if err != nil {
					t.Fatalf("seed %d, anchors %v: assign.Solve: %v", seed, anchors, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, anchors %v: evaluations diverge:\nmatcher:      %+v\nassign.Solve: %+v", seed, anchors, got, want)
				}
				if !nextSubset(anchors, sc.M()) {
					break
				}
			}
		})
	}
}
