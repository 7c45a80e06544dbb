package core_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/workload"
)

// randomAggScenario builds a small random scenario for aggregation tests:
// a cols x 2 grid of 500 m cells, 4-40 users under a random workload
// distribution, 1-5 UAVs with small capacities and mildly heterogeneous
// radios — the differential harness's shape, regenerated locally because
// internal/verify imports this package.
func randomAggScenario(r *rand.Rand) *core.Scenario {
	cols := 2 + r.Intn(3)
	grid := geom.Grid{Length: float64(cols) * 500, Width: 1000, Side: 500, Altitude: 300}
	dist := []workload.Distribution{workload.FatTailed, workload.Uniform, workload.SingleHotspot}[r.Intn(3)]
	n := 4 + r.Intn(37)
	positions, err := workload.UsersRand(r, grid, n, dist, workload.UserOptions{})
	if err != nil {
		panic(err)
	}
	k := 1 + r.Intn(5)
	caps, err := workload.CapacitiesRand(r, k, 1, 6)
	if err != nil {
		panic(err)
	}
	minRate := 0.0
	if r.Intn(2) == 0 {
		minRate = 2000
	}
	sc := &core.Scenario{Grid: grid, UAVRange: 750, Channel: channel.DefaultParams()}
	for _, p := range positions {
		sc.Users = append(sc.Users, core.User{Pos: p, MinRateBps: minRate})
	}
	for i := 0; i < k; i++ {
		tx := channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3}
		if r.Intn(3) == 0 {
			tx.PowerDBm = 24
		}
		sc.UAVs = append(sc.UAVs, core.UAV{
			Name:      "uav",
			Capacity:  caps[i],
			Tx:        tx,
			UserRange: 300 + float64(r.Intn(3))*100,
		})
	}
	return sc
}

// snapScenarioUsers moves every user to the center of its side-meter cell
// (making each demand cell's members co-located, the exactness condition).
func snapScenarioUsers(sc *core.Scenario, side float64) {
	snap := sc.Grid
	snap.Side = side
	for i := range sc.Users {
		col, row := snap.CellAt(snap.CellOf(sc.Users[i].Pos))
		sc.Users[i].Pos = snap.Center(col, row)
	}
}

func TestAggregateBinning(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		sc := randomAggScenario(r)
		side := []float64{250, 500}[trial%2]
		dem, err := core.Aggregate(sc, core.AggOptions{CellSide: side})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := dem.TotalDemand(); got != sc.N() {
			t.Fatalf("trial %d: total demand %d != %d users", trial, got, sc.N())
		}
		if len(dem.NodeOf) != sc.N() {
			t.Fatalf("trial %d: NodeOf has %d entries for %d users", trial, len(dem.NodeOf), sc.N())
		}
		seen := 0
		for id, cell := range dem.Cells {
			if cell.Weight != len(cell.Users) {
				t.Fatalf("trial %d: node %d weight %d != %d members", trial, id, cell.Weight, len(cell.Users))
			}
			if id > 0 {
				prev := dem.Cells[id-1]
				if prev.Cell > cell.Cell || (prev.Cell == cell.Cell && prev.MinRateBps >= cell.MinRateBps) {
					t.Fatalf("trial %d: nodes %d,%d out of (cell, rate) order", trial, id-1, id)
				}
			}
			for i, u := range cell.Users {
				if i > 0 && cell.Users[i-1] >= u {
					t.Fatalf("trial %d: node %d members not ascending", trial, id)
				}
				if dem.NodeOf[u] != int32(id) {
					t.Fatalf("trial %d: NodeOf[%d] = %d, member of node %d", trial, u, dem.NodeOf[u], id)
				}
				pos := sc.Users[u].Pos
				if got := dem.Grid.CellOf(pos); got != cell.Cell {
					t.Fatalf("trial %d: user %d at %v bins to cell %d, node says %d", trial, u, pos, got, cell.Cell)
				}
				if sc.Users[u].MinRateBps != cell.MinRateBps {
					t.Fatalf("trial %d: user %d rate %g in node with rate %g", trial, u, sc.Users[u].MinRateBps, cell.MinRateBps)
				}
				seen++
			}
		}
		if seen != sc.N() {
			t.Fatalf("trial %d: %d members across nodes for %d users", trial, seen, sc.N())
		}
	}
}

// TestAggregateBoundaryUsers is the regression companion of the CellOf
// epsilon-floor fix: users exactly on a cell boundary must aggregate into
// the same cell the per-user grid arithmetic assigns them to. A plain
// floor(x/side) would put x = 3*500 = 1500.0000000000002-adjacent values on
// either side depending on rounding; CellOf's epsilon keeps both paths
// agreeing on the higher cell.
func TestAggregateBoundaryUsers(t *testing.T) {
	t.Parallel()
	grid := geom.Grid{Length: 2000, Width: 1000, Side: 500, Altitude: 300}
	boundary := []geom.Point2{
		{X: 500, Y: 0},     // on the col 0/1 boundary -> col 1
		{X: 1000, Y: 500},  // col 2, row 1
		{X: 1500, Y: 499},  // col 3, row 0
		{X: 2000, Y: 1000}, // clamped area corner -> last cell
		{X: 0, Y: 0},
		{X: 499.9999999999999, Y: 500}, // 1 ulp below the boundary
	}
	sc := &core.Scenario{Grid: grid, UAVRange: 750, Channel: channel.DefaultParams()}
	for _, p := range boundary {
		sc.Users = append(sc.Users, core.User{Pos: p, MinRateBps: 0})
	}
	sc.UAVs = append(sc.UAVs, core.UAV{Name: "uav", Capacity: 6,
		Tx: channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3}, UserRange: 400})

	dem, err := core.Aggregate(sc, core.AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantCell := []int{
		grid.CellIndex(1, 0),
		grid.CellIndex(2, 1),
		grid.CellIndex(3, 0),
		grid.CellIndex(3, 1),
		grid.CellIndex(0, 0),
		grid.CellIndex(1, 1), // the epsilon floor treats the 1-ulp shortfall as on the boundary
	}
	for u, want := range wantCell {
		node := dem.Cells[dem.NodeOf[u]]
		if node.Cell != want {
			t.Errorf("user %d at %v: aggregated into cell %d, per-user path uses %d",
				u, sc.Users[u].Pos, node.Cell, want)
		}
		if perUser := grid.CellOf(sc.Users[u].Pos); node.Cell != perUser {
			t.Errorf("user %d: aggregation cell %d != CellOf %d", u, node.Cell, perUser)
		}
	}
}

func TestAggregateRejectsBadCellSide(t *testing.T) {
	t.Parallel()
	sc := randomAggScenario(rand.New(rand.NewSource(3)))
	if _, err := core.Aggregate(sc, core.AggOptions{CellSide: 700}); err == nil {
		t.Fatal("CellSide 700 does not divide the area; want an error")
	}
	if _, err := core.NewAggregateInstance(sc, core.AggOptions{CellSide: -1}); err == nil {
		t.Fatal("negative CellSide; want an error")
	}
}

// TestAggregateEligibilityConservative: whenever a demand cell is eligible
// at (class, loc), every one of its members must be individually eligible
// there — the property that makes every aggregated deployment expand to a
// per-user-feasible assignment.
func TestAggregateEligibilityConservative(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		sc := randomAggScenario(r)
		perUser, err := core.NewInstance(sc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		agg, err := core.NewAggregateInstance(sc, core.AggOptions{CellSide: []float64{250, 500}[trial%2]})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if agg.Aggregated() == false || perUser.Aggregated() {
			t.Fatalf("trial %d: Aggregated() flags wrong", trial)
		}
		for c := range agg.Eligible {
			for loc := range agg.Eligible[c] {
				wantWeight := 0
				for _, node := range agg.Eligible[c][loc] {
					cell := agg.Demand.Cells[node]
					wantWeight += cell.Weight
					for _, u := range cell.Users {
						if !perUser.EligMask[c][loc].Has(int(u)) {
							t.Fatalf("trial %d: node %d eligible at class %d loc %d but member user %d is not",
								trial, node, c, loc, u)
						}
					}
				}
				if got := agg.EligWeight[c][loc]; got != wantWeight {
					t.Fatalf("trial %d: EligWeight[%d][%d] = %d, members sum to %d", trial, c, loc, got, wantWeight)
				}
			}
		}
	}
}

func TestAggregationExactSnapped(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		sc := randomAggScenario(r)
		side := []float64{250, 500}[trial%2]
		snapScenarioUsers(sc, side)
		perUser, err := core.NewInstance(sc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		agg, err := core.NewAggregateInstance(sc, core.AggOptions{CellSide: side})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !core.AggregationExact(perUser, agg) {
			t.Fatalf("trial %d: snapped scenario (side %g) not exact", trial, side)
		}
	}
	// Argument order matters: swapped or per-user-only inputs are never exact.
	sc := randomAggScenario(rand.New(rand.NewSource(32)))
	snapScenarioUsers(sc, 500)
	perUser, _ := core.NewInstance(sc)
	agg, _ := core.NewAggregateInstance(sc, core.AggOptions{})
	if core.AggregationExact(agg, perUser) {
		t.Fatal("swapped arguments reported exact")
	}
	if core.AggregationExact(perUser, perUser) {
		t.Fatal("two per-user instances reported exact")
	}
}

func TestAggregateFingerprints(t *testing.T) {
	t.Parallel()
	sc := randomAggScenario(rand.New(rand.NewSource(41)))
	perUser, err := core.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	if perUser.Fingerprint() != sc.Fingerprint() {
		t.Fatal("per-user instance fingerprint must equal the scenario fingerprint")
	}
	agg250, err := core.NewAggregateInstance(sc, core.AggOptions{CellSide: 250})
	if err != nil {
		t.Fatal(err)
	}
	agg500, err := core.NewAggregateInstance(sc, core.AggOptions{CellSide: 500})
	if err != nil {
		t.Fatal(err)
	}
	fps := map[uint64]string{
		sc.Fingerprint():     "scenario",
		agg250.Fingerprint(): "agg-250",
		agg500.Fingerprint(): "agg-500",
	}
	if len(fps) != 3 {
		t.Fatalf("fingerprints collide: %v", fps)
	}
	for _, side := range []float64{250, 500} {
		want := agg250
		if side == 500 {
			want = agg500
		}
		got, err := core.AggregateFingerprint(sc, core.AggOptions{CellSide: side})
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Fingerprint() {
			t.Fatalf("AggregateFingerprint(side %g) = %016x, instance has %016x", side, got, want.Fingerprint())
		}
	}
}

// TestAggregatedApproxMatchesPerUser: on snapped (demand-homogeneous)
// scenarios the aggregated solve must reproduce the per-user deployment —
// same served count and same placement — under both leftover modes.
func TestAggregatedApproxMatchesPerUser(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		sc := randomAggScenario(r)
		side := []float64{250, 500}[trial%2]
		snapScenarioUsers(sc, side)
		// Index users in (demand cell, rate) order so the per-user leftover
		// claim pass (user-index order) walks nodes exactly like the
		// aggregated claim pass (node order); see DESIGN.md §12.
		snap := sc.Grid
		snap.Side = side
		sort.SliceStable(sc.Users, func(a, b int) bool {
			ca, cb := snap.CellOf(sc.Users[a].Pos), snap.CellOf(sc.Users[b].Pos)
			if ca != cb {
				return ca < cb
			}
			return sc.Users[a].MinRateBps < sc.Users[b].MinRateBps
		})
		perUser, err := core.NewInstance(sc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		agg, err := core.NewAggregateInstance(sc, core.AggOptions{CellSide: side})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s := 2
		if s > sc.K() {
			s = sc.K()
		}
		for _, ground := range []bool{false, true} {
			opts := core.Options{S: s, Workers: 2, GroundLeftovers: ground}
			want, err := core.Approx(context.Background(), perUser, opts)
			if err != nil {
				t.Fatalf("trial %d ground=%v: per-user: %v", trial, ground, err)
			}
			got, err := core.Approx(context.Background(), agg, opts)
			if err != nil {
				t.Fatalf("trial %d ground=%v: aggregated: %v", trial, ground, err)
			}
			if got.Served != want.Served {
				t.Errorf("trial %d ground=%v: aggregated served %d, per-user %d",
					trial, ground, got.Served, want.Served)
			}
			for uav := range want.LocationOf {
				if got.LocationOf[uav] != want.LocationOf[uav] {
					t.Errorf("trial %d ground=%v: UAV %d at %d aggregated vs %d per-user",
						trial, ground, uav, got.LocationOf[uav], want.LocationOf[uav])
				}
			}
			core.CheckDeploymentFeasible(t, perUser, got) // per-user feasibility of the expansion
		}
	}
}

// TestAggregatedEvaluateFixed compares EvaluateFixed on snapped scenarios
// across the two instance kinds for hand placements.
func TestAggregatedEvaluateFixed(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		sc := randomAggScenario(r)
		snapScenarioUsers(sc, 500)
		perUser, err := core.NewInstance(sc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		agg, err := core.NewAggregateInstance(sc, core.AggOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Deploy a random-length prefix of a column-major snake through the
		// grid: consecutive snake cells are at most 500*sqrt(2) = 707 m
		// apart, within UAVRange 750, so every prefix is connected.
		var snake []int
		cols := int(sc.Grid.Length / sc.Grid.Side)
		rows := int(sc.Grid.Width / sc.Grid.Side)
		for col := 0; col < cols; col++ {
			for row := 0; row < rows; row++ {
				snake = append(snake, sc.Grid.CellIndex(col, row))
			}
		}
		deployed := 1 + r.Intn(sc.K())
		if deployed > len(snake) {
			deployed = len(snake)
		}
		locationOf := make([]int, sc.K())
		for uav := range locationOf {
			locationOf[uav] = -1
			if uav < deployed {
				locationOf[uav] = snake[uav]
			}
		}
		want, err := core.EvaluateFixed(perUser, locationOf)
		if err != nil {
			t.Fatalf("trial %d: per-user: %v", trial, err)
		}
		got, err := core.EvaluateFixed(agg, locationOf)
		if err != nil {
			t.Fatalf("trial %d: aggregated: %v", trial, err)
		}
		if got.Served != want.Served {
			t.Errorf("trial %d: aggregated EvaluateFixed served %d, per-user %d", trial, got.Served, want.Served)
		}
		core.CheckDeploymentFeasible(t, perUser, got)
	}
}

// TestAggregatedRejections: the paths that have no sound aggregated
// semantics must fail loudly, not silently mis-count.
func TestAggregatedRejections(t *testing.T) {
	t.Parallel()
	sc := randomAggScenario(rand.New(rand.NewSource(71)))
	agg, err := core.NewAggregateInstance(sc, core.AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.Approx(context.Background(), agg, core.Options{S: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.RefineAssignment(agg, dep); err == nil {
		t.Fatal("RefineAssignment accepted an aggregated instance")
	}
	if _, err := core.SolveAggregate(NewInstanceMust(t, sc), nil, nil); err == nil {
		t.Fatal("solveAggregate accepted a per-user instance")
	}
}

// NewInstanceMust is a test helper: NewInstance or fail.
func NewInstanceMust(t *testing.T, sc *core.Scenario) *core.Instance {
	t.Helper()
	in, err := core.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestAggregatedCheckpointFingerprint: a checkpoint taken on an aggregated
// run refuses to resume on the per-user instance or under a different
// demand-cell side, and resumes correctly on a matching instance.
func TestAggregatedCheckpointFingerprint(t *testing.T) {
	t.Parallel()
	sc := randomAggScenario(rand.New(rand.NewSource(81)))
	snapScenarioUsers(sc, 500)
	agg, err := core.NewAggregateInstance(sc, core.AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := 2
	if s > sc.K() {
		s = sc.K()
	}
	opts := core.Options{S: s, Workers: 1, StopAfter: 1}
	stopped, err := core.Approx(context.Background(), agg, opts)
	if err != nil {
		t.Fatalf("stopped run: %v", err)
	}
	if stopped.Status != core.StatusStopped || stopped.Checkpoint == nil {
		t.Fatalf("StopAfter=1 did not yield a resumable checkpoint: %+v", stopped.Status)
	}
	cp := stopped.Checkpoint
	if cp.ScenarioFingerprint != agg.Fingerprint() {
		t.Fatalf("checkpoint fingerprint %016x != aggregated instance %016x", cp.ScenarioFingerprint, agg.Fingerprint())
	}

	resume := core.Options{S: s, Workers: 1, Resume: cp}
	perUser := NewInstanceMust(t, sc)
	if _, err := core.Approx(context.Background(), perUser, resume); err == nil {
		t.Fatal("aggregated checkpoint resumed on the per-user instance")
	}
	agg250, err := core.NewAggregateInstance(sc, core.AggOptions{CellSide: 250})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Approx(context.Background(), agg250, resume); err == nil {
		t.Fatal("aggregated checkpoint resumed under a different demand-cell side")
	}

	resumed, err := core.Approx(context.Background(), agg, resume)
	if err != nil {
		t.Fatalf("matching resume: %v", err)
	}
	full, err := core.Approx(context.Background(), agg, core.Options{S: s, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Served != full.Served {
		t.Fatalf("resumed run served %d, uninterrupted %d", resumed.Served, full.Served)
	}
}
