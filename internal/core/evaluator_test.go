package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/match"
	"github.com/uav-coverage/uavnet/internal/matroid"
)

// evaluatorScenario is a 4x4 grid with a clustered population, dense enough
// that different anchor subsets score differently.
func evaluatorScenario() *Scenario {
	var users []geom.Point2
	// A hotspot in the lower-left cell and a spread over the diagonal.
	for i := 0; i < 6; i++ {
		users = append(users, geom.Point2{X: 250, Y: 250})
	}
	users = append(users,
		geom.Point2{X: 750, Y: 750}, geom.Point2{X: 750, Y: 750},
		geom.Point2{X: 1250, Y: 1250}, geom.Point2{X: 1750, Y: 1750},
	)
	return testScenario(users, []int{3, 2, 2, 1})
}

// TestSubsetEvaluatorMatchesApprox replays the enumeration winner's anchors
// through the standalone evaluator and requires the exact same deployment —
// the evaluator is one enumeration step, factored out.
func TestSubsetEvaluatorMatchesApprox(t *testing.T) {
	t.Parallel()
	in, err := NewInstance(evaluatorScenario())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{S: 2}
	dep, err := Approx(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewSubsetEvaluator(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Evaluate(dep.Anchors)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("enumeration winner %v is infeasible for the evaluator", dep.Anchors)
	}
	if res.Served != dep.Served {
		t.Fatalf("Evaluate(%v).Served = %d, Approx served %d", dep.Anchors, res.Served, dep.Served)
	}
	rebuilt, err := ev.BuildDeployment(dep.Anchors)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Served != dep.Served {
		t.Fatalf("BuildDeployment served %d, Approx served %d", rebuilt.Served, dep.Served)
	}
	if !reflect.DeepEqual(rebuilt.LocationOf, dep.LocationOf) {
		t.Fatalf("locations differ: %v vs %v", rebuilt.LocationOf, dep.LocationOf)
	}
	if !reflect.DeepEqual(rebuilt.Assignment.PerStation, dep.Assignment.PerStation) {
		t.Fatalf("per-station loads differ: %v vs %v", rebuilt.Assignment.PerStation, dep.Assignment.PerStation)
	}
	if !reflect.DeepEqual(rebuilt.Anchors, dep.Anchors) {
		t.Fatalf("anchors differ: %v vs %v", rebuilt.Anchors, dep.Anchors)
	}
}

func TestSubsetEvaluatorCountsEvaluations(t *testing.T) {
	t.Parallel()
	in, err := NewInstance(evaluatorScenario())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewSubsetEvaluator(in, Options{S: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.Evaluations(); got != 0 {
		t.Fatalf("fresh evaluator has %d evaluations", got)
	}
	anchors := []int{0, 1}
	for i := 1; i <= 3; i++ {
		if _, err := ev.Evaluate(anchors); err != nil {
			t.Fatal(err)
		}
		if got := ev.Evaluations(); got != int64(i) {
			t.Fatalf("after %d evaluations counter reads %d", i, got)
		}
	}
	ev.SetEvaluations(42)
	if got := ev.Evaluations(); got != 42 {
		t.Fatalf("SetEvaluations(42) then Evaluations() = %d", got)
	}
}

// TestSubsetEvaluatorInfeasibleSubset feeds anchors whose pairwise hop
// distance exceeds what K UAVs can bridge, expecting a clean infeasible
// verdict from Evaluate and an error from BuildDeployment.
func TestSubsetEvaluatorInfeasibleSubset(t *testing.T) {
	t.Parallel()
	// Two UAVs on a 4x4 grid: opposite corners are 3 hops apart, so a
	// 2-anchor subset spanning them needs 4 > K network members.
	sc := testScenario([]geom.Point2{{X: 250, Y: 250}, {X: 1750, Y: 1750}}, []int{2, 2})
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewSubsetEvaluator(in, Options{S: 2})
	if err != nil {
		t.Fatal(err)
	}
	corners := []int{0, 15}
	res, err := ev.Evaluate(corners)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("corner subset %v feasible with K=2", corners)
	}
	if _, err := ev.BuildDeployment(corners); err == nil {
		t.Fatal("BuildDeployment succeeded on an infeasible subset")
	}
}

func TestApproxRejectsSolverOptions(t *testing.T) {
	t.Parallel()
	in, err := NewInstance(evaluatorScenario())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Approx(context.Background(), in, Options{S: 2, Solver: "anneal"}); err == nil {
		t.Fatal("Approx accepted Solver=anneal")
	}
	for _, solver := range []string{"", "enum"} {
		if _, err := Approx(context.Background(), in, Options{S: 2, Solver: solver}); err != nil {
			t.Fatalf("Approx rejected Solver=%q: %v", solver, err)
		}
	}
}

// multiClassInstances draws a heterogeneous fleet over a 2 km square of
// 250 m cells: 100-400 uniform users at 2 kbps, 4-9 UAVs whose radios mix
// 24 and 30 dBm with 200, 350 and 500 m user ranges. It returns the fleet's
// per-user instance and its aggregated instance at 125 m demand cells.
func multiClassInstances(t *testing.T, r *rand.Rand) (perUser, aggregated *Instance) {
	t.Helper()
	sc := &Scenario{
		Grid:     geom.Grid{Length: 2000, Width: 2000, Side: 250, Altitude: 300},
		UAVRange: 500,
		Channel:  channel.DefaultParams(),
	}
	for i := 0; i < 100+r.Intn(301); i++ {
		sc.Users = append(sc.Users, User{Pos: geom.Point2{X: r.Float64() * 2000, Y: r.Float64() * 2000}, MinRateBps: 2000})
	}
	for k := 0; k < 4+r.Intn(6); k++ {
		sc.UAVs = append(sc.UAVs, UAV{
			Capacity:  5 + r.Intn(40),
			Tx:        channel.Transmitter{PowerDBm: []float64{24, 30}[r.Intn(2)], AntennaGainDBi: 3},
			UserRange: []float64{200, 350, 500}[r.Intn(3)],
		})
	}
	perUser, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	if aggregated, err = NewAggregateInstance(sc, AggOptions{CellSide: 125}); err != nil {
		t.Fatal(err)
	}
	return perUser, aggregated
}

// naiveSelection is the greedy phase of Algorithm 2 without laziness, on a
// matcher of its own: round r commits, among the M2-feasible cells, the one
// of largest exact gain for the r-th largest UAV, ties going to the smaller
// cell.
func naiveSelection(t *testing.T, in *Instance, b Budget, anchors []int) []int {
	t.Helper()
	sc := in.Scenario
	var eng gainEngine
	var err error
	if in.Aggregated() {
		eng, err = match.NewWeightedMatcher(in.Weights, sc.K())
	} else {
		eng, err = match.NewMatcher(in.NumNodes(), sc.K())
	}
	if err != nil {
		t.Fatal(err)
	}
	m2 := matroid.HopCount{Dist: in.LocGraph.MultiSourceBFS(anchors), Q: QValues(b.LMax, b.P)}
	counts := make([]int, len(m2.Q))
	var sel []int
	for round := 0; round < b.LMax; round++ {
		uav := in.ByCapacity[round]
		best, bestGain := -1, -1
		for c := 0; c < sc.M(); c++ {
			if slices.Contains(sel, c) || !m2.CanAddInto(sel, c, counts) {
				continue
			}
			g, err := eng.Gain(sc.UAVs[uav].Capacity, in.EligibleUsers(uav, c))
			if err != nil {
				t.Fatal(err)
			}
			if g > bestGain {
				best, bestGain = c, g
			}
		}
		if best == -1 {
			break
		}
		if _, err := eng.Commit(sc.UAVs[uav].Capacity, in.EligibleUsers(uav, best)); err != nil {
			t.Fatal(err)
		}
		sel = append(sel, best)
	}
	return sel
}

// TestGreedyExactOnMultiClassFleets holds the evaluator's lazy greedy to the
// naive one on heterogeneous fleets, per-user and aggregated: every feasible
// anchor pair selects the same cells in the same order. A lazy greedy that
// carries its heap keys across a change of radio class commits a smaller
// gain, or breaks a tie toward the larger cell, on many of these pairs.
func TestGreedyExactOnMultiClassFleets(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(61))
	compared := 0
	for fleet := 0; fleet < 30; fleet++ {
		perUser, aggregated := multiClassInstances(t, r)
		for _, in := range []*Instance{perUser, aggregated} {
			ev, err := NewSubsetEvaluator(in, Options{S: 2})
			if err != nil {
				t.Fatal(err)
			}
			for pair := 0; pair < 20; pair++ {
				a, b := r.Intn(in.Scenario.M()), r.Intn(in.Scenario.M()-1)
				if b >= a {
					b++
				}
				anchors := []int{min(a, b), max(a, b)}
				res, err := ev.Evaluate(anchors)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Feasible {
					continue
				}
				compared++
				if want := naiveSelection(t, in, ev.Budget(), anchors); !slices.Equal(res.Locs[:res.NSel], want) {
					t.Fatalf("fleet %d (aggregated %v), anchors %v: lazy greedy selects %v, naive greedy %v",
						fleet, in.Aggregated(), anchors, res.Locs[:res.NSel], want)
				}
			}
		}
	}
	if compared < 300 {
		t.Fatalf("only %d feasible anchor pairs compared", compared)
	}
}

// TestGreedyBoundsSound checks the keys the lazy greedy orders its heap by
// on heterogeneous fleets, per-user and aggregated. Every round, with random
// cells committed before it, RoundBound bounds every cell's exact gain, and
// so does the static Bound until the first round where Rekey reports a
// change of radio class.
func TestGreedyBoundsSound(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(67))
	for fleet := 0; fleet < 20; fleet++ {
		perUser, aggregated := multiClassInstances(t, r)
		for _, in := range []*Instance{perUser, aggregated} {
			ev, err := NewSubsetEvaluator(in, Options{S: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.engine.Reset(); err != nil {
				t.Fatal(err)
			}
			o := (*greedyOracle)(ev)
			m := in.Scenario.M()
			rekeyed := false
			for round, cell := range r.Perm(m)[:in.Scenario.K()] {
				rekeyed = rekeyed || round > 0 && o.Rekey(round)
				for loc := 0; loc < m; loc++ {
					g, err := o.Gain(round, loc)
					if err != nil {
						t.Fatal(err)
					}
					if b := o.RoundBound(round, loc); b < g {
						t.Fatalf("fleet %d (aggregated %v), round %d, cell %d: RoundBound %d < gain %d",
							fleet, in.Aggregated(), round, loc, b, g)
					}
					if b := o.Bound(loc); !rekeyed && b < g {
						t.Fatalf("fleet %d (aggregated %v), round %d, cell %d: Bound %d < gain %d before any re-key",
							fleet, in.Aggregated(), round, loc, b, g)
					}
				}
				if _, err := o.Commit(round, cell); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestEvaluateAllocatesNothing pins the evaluator's steady state: once
// every buffer has grown to its working size, Evaluate allocates nothing,
// on a per-user and on an aggregated instance.
func TestEvaluateAllocatesNothing(t *testing.T) {
	perUser, aggregated := multiClassInstances(t, rand.New(rand.NewSource(71)))
	for _, in := range []*Instance{perUser, aggregated} {
		ev, err := NewSubsetEvaluator(in, Options{S: 2})
		if err != nil {
			t.Fatal(err)
		}
		var subsets [][]int
		feasible := 0
		for a := 0; a < in.Scenario.M(); a++ {
			for b := a + 1; b < in.Scenario.M(); b += 3 {
				subsets = append(subsets, []int{a, b})
				res, err := ev.Evaluate([]int{a, b})
				if err != nil {
					t.Fatal(err)
				}
				if res.Feasible && res.NSel < len(res.Locs) {
					feasible++
				}
			}
		}
		if feasible == 0 {
			t.Fatalf("aggregated %v: no subset reaches relays or leftovers", in.Aggregated())
		}
		allocs := testing.AllocsPerRun(3, func() {
			for _, anchors := range subsets {
				if _, err := ev.Evaluate(anchors); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("aggregated %v: %v allocations per pass over %d warmed subsets, want 0", in.Aggregated(), allocs, len(subsets))
		}
	}
}
