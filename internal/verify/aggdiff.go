package verify

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"github.com/uav-coverage/uavnet/internal/core"
)

// AggregateDifferential cross-checks the demand-aggregated solve against
// the per-user solve on the scenario seeded by seed, in three regimes:
//
//  1. Snapped users indexed in (demand cell, rate) order: every demand cell
//     is degenerate (all members co-located with equal rate), so aggregation
//     is exact and the default-mode approAlg runs must agree on the served
//     count and the full placement. The index order matters only for the
//     leftover-extension pass, which claims per-user demand in user-index
//     order but aggregated demand in (cell, rate) node order; indexing users
//     the same way makes the two claim sequences identical (DESIGN.md §12).
//  2. Snapped users in generator order: with GroundLeftovers the extension
//     pass is off, and the greedy phase's matching values are commit-order
//     independent, so the runs must still agree on count and placement.
//  3. The original continuous users: aggregation is conservative, not exact,
//     so no equality is claimed — but the aggregated deployment must expand
//     to a per-user assignment that the oracle finds violation-free.
//
// Any disagreement or violation comes back as an error naming the seed so
// the failure replays exactly.
//
//uavlint:allow testonly -- the harness behind TestAggregateDifferentialRandomScenarios, kept beside the oracle it drives
func AggregateDifferential(ctx context.Context, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	sc, err := RandomScenario(r)
	if err != nil {
		return fmt.Errorf("seed %d: generate: %w", seed, err)
	}
	side := 500.0
	if seed%2 == 0 {
		side = 250
	}
	opts := core.AggOptions{CellSide: side}

	sorted := snapScenario(sc, side)
	sortUsersByDemandNode(sorted, side)
	if err := diffAggRegime(ctx, seed, "snapped+sorted", sorted, opts, false, true); err != nil {
		return err
	}
	unsorted := snapScenario(sc, side)
	if err := diffAggRegime(ctx, seed, "snapped", unsorted, opts, true, true); err != nil {
		return err
	}
	return diffAggRegime(ctx, seed, "continuous", sc, opts, false, false)
}

// diffAggRegime runs approAlg on the per-user and aggregated instances of
// one scenario and applies the regime's checks: oracle cleanliness always,
// served-count and placement equality when wantEqual.
func diffAggRegime(ctx context.Context, seed int64, regime string, sc *core.Scenario,
	opts core.AggOptions, groundLeftovers, wantEqual bool) error {
	perUser, err := core.NewInstance(sc)
	if err != nil {
		return fmt.Errorf("seed %d %s: instance: %w", seed, regime, err)
	}
	agg, err := core.NewAggregateInstance(sc, opts)
	if err != nil {
		return fmt.Errorf("seed %d %s: aggregate: %w", seed, regime, err)
	}
	if wantEqual && !core.AggregationExact(perUser, agg) {
		return fmt.Errorf("seed %d %s: snapped scenario not demand-homogeneous", seed, regime)
	}

	s := 2
	if s > sc.K() {
		s = sc.K()
	}
	runOpts := core.Options{S: s, Workers: 2, GroundLeftovers: groundLeftovers}
	want, err := core.Approx(ctx, perUser, runOpts)
	if err != nil {
		return fmt.Errorf("seed %d %s: per-user approAlg: %w", seed, regime, err)
	}
	got, err := core.Approx(ctx, agg, runOpts)
	if err != nil {
		return fmt.Errorf("seed %d %s: aggregated approAlg: %w", seed, regime, err)
	}
	// Both deployments must satisfy every per-user constraint; the
	// aggregated one is checked against the per-user instance, so a cell
	// that was eligible in aggregate but hides an infeasible member user
	// would surface here.
	if rep := CheckDeployment(perUser, want); !rep.OK() {
		return fmt.Errorf("seed %d %s: per-user: %s", seed, regime, rep)
	}
	if rep := CheckDeployment(perUser, got); !rep.OK() {
		return fmt.Errorf("seed %d %s: aggregated: %s", seed, regime, rep)
	}
	if !wantEqual {
		return nil
	}
	if got.Served != want.Served {
		return fmt.Errorf("seed %d %s: aggregated served %d, per-user %d",
			seed, regime, got.Served, want.Served)
	}
	for uav := range want.LocationOf {
		if got.LocationOf[uav] != want.LocationOf[uav] {
			return fmt.Errorf("seed %d %s: UAV %d at %d aggregated vs %d per-user",
				seed, regime, uav, got.LocationOf[uav], want.LocationOf[uav])
		}
	}
	return nil
}

// snapScenario deep-copies sc with every user moved to the center of its
// side-meter cell, making each demand cell's members co-located.
func snapScenario(sc *core.Scenario, side float64) *core.Scenario {
	out := *sc
	out.Users = append([]core.User(nil), sc.Users...)
	out.UAVs = append([]core.UAV(nil), sc.UAVs...)
	snap := out.Grid
	snap.Side = side
	for i := range out.Users {
		col, row := snap.CellAt(snap.CellOf(out.Users[i].Pos))
		out.Users[i].Pos = snap.Center(col, row)
	}
	return &out
}

// sortUsersByDemandNode indexes sc's users in (demand cell, min rate)
// order — the order Aggregate lays demand nodes out in.
func sortUsersByDemandNode(sc *core.Scenario, side float64) {
	snap := sc.Grid
	snap.Side = side
	sort.SliceStable(sc.Users, func(a, b int) bool {
		ca, cb := snap.CellOf(sc.Users[a].Pos), snap.CellOf(sc.Users[b].Pos)
		if ca != cb {
			return ca < cb
		}
		return sc.Users[a].MinRateBps < sc.Users[b].MinRateBps
	})
}
