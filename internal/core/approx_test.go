package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/uav-coverage/uavnet/internal/assign"
	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/graph"
	"github.com/uav-coverage/uavnet/internal/matroid"
)

// testScenario builds a 4x4-cell (2x2 km) scenario with explicit user
// ranges so that eligibility is purely geometric and easy to reason about.
func testScenario(users []geom.Point2, caps []int) *Scenario {
	sc := &Scenario{
		Grid:     geom.Grid{Length: 2000, Width: 2000, Side: 500, Altitude: 300},
		UAVRange: 750, // adjacent and diagonal neighbors are connected
		Channel:  channel.DefaultParams(),
	}
	for _, p := range users {
		sc.Users = append(sc.Users, User{Pos: p, MinRateBps: 0})
	}
	for i, c := range caps {
		sc.UAVs = append(sc.UAVs, UAV{
			Name:      "uav",
			Capacity:  c,
			Tx:        channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3},
			UserRange: 300, // covers essentially only the UAV's own cell
		})
		_ = i
	}
	return sc
}

// checkDeploymentFeasible asserts all three constraints of Section II-C.
func checkDeploymentFeasible(t *testing.T, in *Instance, dep *Deployment) {
	t.Helper()
	sc := in.Scenario
	if dep.DeployedCount() > sc.K() {
		t.Errorf("deployed %d UAVs, have only %d", dep.DeployedCount(), sc.K())
	}
	// No two UAVs in the same cell.
	used := map[int]int{}
	for k, loc := range dep.LocationOf {
		if loc < 0 {
			continue
		}
		if prev, ok := used[loc]; ok {
			t.Errorf("UAVs %d and %d share location %d", prev, k, loc)
		}
		used[loc] = k
	}
	// (iii) connectivity of the deployed network.
	locs := dep.DeployedLocations()
	if !in.LocGraph.Connected(locs) {
		t.Errorf("deployed locations %v are not connected", locs)
	}
	// (i)+(ii): eligibility and capacity via the assignment.
	perUAV := make([]int, sc.K())
	for i, uav := range dep.Assignment.UserStation {
		if uav == assign.Unassigned {
			continue
		}
		loc := dep.LocationOf[uav]
		if loc < 0 {
			t.Errorf("user %d assigned to grounded UAV %d", i, uav)
			continue
		}
		eligible := false
		for _, e := range in.EligibleUsers(uav, loc) {
			if e == i {
				eligible = true
				break
			}
		}
		if !eligible {
			t.Errorf("user %d not eligible for UAV %d at loc %d", i, uav, loc)
		}
		perUAV[uav]++
	}
	served := 0
	for k, c := range perUAV {
		if c > sc.UAVs[k].Capacity {
			t.Errorf("UAV %d serves %d users, capacity %d", k, c, sc.UAVs[k].Capacity)
		}
		if c != dep.Assignment.PerStation[k] {
			t.Errorf("PerStation[%d] = %d, counted %d", k, dep.Assignment.PerStation[k], c)
		}
		served += c
	}
	if served != dep.Served {
		t.Errorf("Served = %d but assignment covers %d", dep.Served, served)
	}
}

func cellCenter(sc *Scenario, col, row int) geom.Point2 {
	return sc.Grid.Center(col, row)
}

func TestApproxTwoClusters(t *testing.T) {
	t.Parallel()
	// Users concentrated in two opposite corner cells; three UAVs must form
	// a connected chain. With capacities 10,10,1 the two big UAVs should sit
	// on the clusters.
	sc := testScenario(nil, []int{10, 10, 1})
	for i := 0; i < 8; i++ {
		sc.Users = append(sc.Users, User{Pos: cellCenter(sc, 0, 0)})
		sc.Users = append(sc.Users, User{Pos: cellCenter(sc, 2, 0)})
	}
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Approx(context.Background(), in, Options{S: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkDeploymentFeasible(t, in, dep)
	// Cells (0,0) and (2,0) are 1000 m apart: not directly connected, but a
	// relay in between links them, so all 16 users are servable.
	if dep.Served != 16 {
		t.Errorf("Served = %d, want 16", dep.Served)
	}
}

func TestApproxCapacityAwarePlacement(t *testing.T) {
	t.Parallel()
	// One dense cell (20 users), one sparse cell (2 users). The high-capacity
	// UAV must take the dense cell.
	sc := testScenario(nil, []int{20, 2})
	for i := 0; i < 20; i++ {
		sc.Users = append(sc.Users, User{Pos: cellCenter(sc, 1, 1)})
	}
	sc.Users = append(sc.Users,
		User{Pos: cellCenter(sc, 2, 1)}, User{Pos: cellCenter(sc, 2, 1)})
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Approx(context.Background(), in, Options{S: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkDeploymentFeasible(t, in, dep)
	if dep.Served != 22 {
		t.Errorf("Served = %d, want 22", dep.Served)
	}
	// The capacity-20 UAV (index 0) must be on the dense cell (1,1) = cell 5.
	if dep.LocationOf[0] != sc.Grid.CellIndex(1, 1) {
		t.Errorf("big UAV at cell %d, want %d", dep.LocationOf[0], sc.Grid.CellIndex(1, 1))
	}
}

func TestApproxDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(8))
	var users []geom.Point2
	for i := 0; i < 60; i++ {
		users = append(users, geom.Point2{X: r.Float64() * 2000, Y: r.Float64() * 2000})
	}
	sc := testScenario(users, []int{9, 7, 5, 3})
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	var first *Deployment
	for _, workers := range []int{1, 2, 8} {
		dep, err := Approx(context.Background(), in, Options{S: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkDeploymentFeasible(t, in, dep)
		if first == nil {
			first = dep
			continue
		}
		if dep.Served != first.Served {
			t.Errorf("workers=%d: served %d, want %d", workers, dep.Served, first.Served)
		}
		for k := range dep.LocationOf {
			if dep.LocationOf[k] != first.LocationOf[k] {
				t.Errorf("workers=%d: UAV %d at %d, want %d",
					workers, k, dep.LocationOf[k], first.LocationOf[k])
			}
		}
	}
}

func TestApproxPruningIsExact(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(21))
	var users []geom.Point2
	for i := 0; i < 40; i++ {
		users = append(users, geom.Point2{X: r.Float64() * 2000, Y: r.Float64() * 2000})
	}
	sc := testScenario(users, []int{6, 4, 2})
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Approx(context.Background(), in, Options{S: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Approx(context.Background(), in, Options{S: 2, Workers: 1, DisablePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Served != full.Served {
		t.Errorf("pruning changed the result: %d vs %d", pruned.Served, full.Served)
	}
	if pruned.SubsetsPruned == 0 {
		t.Error("expected some subsets to be pruned on a 4x4 grid with K=3")
	}
	if full.SubsetsPruned != 0 {
		t.Errorf("DisablePrune still pruned %d subsets", full.SubsetsPruned)
	}
	if full.SubsetsEvaluated <= pruned.SubsetsEvaluated {
		t.Errorf("full enumeration evaluated %d <= pruned %d",
			full.SubsetsEvaluated, pruned.SubsetsEvaluated)
	}
}

func TestApproxClampsS(t *testing.T) {
	t.Parallel()
	// K = 2 but s = 3 (the paper's Fig. 4 sweeps K from 2 with s = 3): s is
	// clamped to K and the run succeeds.
	sc := testScenario(nil, []int{3, 3})
	// Two users in each of two adjacent cells: both UAVs deploy side by side
	// and all four users are served.
	for i := 0; i < 2; i++ {
		sc.Users = append(sc.Users, User{Pos: cellCenter(sc, 1, 1)})
		sc.Users = append(sc.Users, User{Pos: cellCenter(sc, 2, 1)})
	}
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Approx(context.Background(), in, Options{S: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkDeploymentFeasible(t, in, dep)
	if dep.Budget.S != 2 {
		t.Errorf("Budget.S = %d, want clamp to K = 2", dep.Budget.S)
	}
	if dep.Served != 4 {
		t.Errorf("Served = %d, want 4", dep.Served)
	}
}

func TestApproxInfeasibleDisconnectedGrid(t *testing.T) {
	t.Parallel()
	// UAV range shorter than cell spacing: no two locations can link, so
	// every anchor pair (s = 2) is disconnected and no solution exists.
	sc := testScenario([]geom.Point2{{X: 100, Y: 100}}, []int{5, 5})
	sc.UAVRange = 100
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Approx(context.Background(), in, Options{S: 2, Workers: 1}); err == nil {
		t.Error("expected infeasibility error on a disconnected location graph")
	}
}

func TestApproxSingleUAV(t *testing.T) {
	t.Parallel()
	sc := testScenario(nil, []int{2})
	for i := 0; i < 5; i++ {
		sc.Users = append(sc.Users, User{Pos: cellCenter(sc, 0, 0)})
	}
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Approx(context.Background(), in, Options{S: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkDeploymentFeasible(t, in, dep)
	if dep.Served != 2 { // capacity-bound
		t.Errorf("Served = %d, want 2", dep.Served)
	}
}

func TestApproxMaxSubsetsSampling(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(5))
	var users []geom.Point2
	for i := 0; i < 30; i++ {
		users = append(users, geom.Point2{X: r.Float64() * 2000, Y: r.Float64() * 2000})
	}
	sc := testScenario(users, []int{5, 5, 5})
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Approx(context.Background(), in, Options{S: 2, Workers: 1, MaxSubsets: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkDeploymentFeasible(t, in, a)
	b, err := Approx(context.Background(), in, Options{S: 2, Workers: 4, MaxSubsets: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != b.Served {
		t.Errorf("sampled run not deterministic: %d vs %d", a.Served, b.Served)
	}
	if a.SubsetsEvaluated+a.SubsetsPruned > 10 {
		t.Errorf("examined %d subsets, cap was 10", a.SubsetsEvaluated+a.SubsetsPruned)
	}
}

func TestApproxGreedyUsesAnchors(t *testing.T) {
	t.Parallel()
	// The winning anchors must be among the deployed locations.
	sc := testScenario(nil, []int{4, 4, 4})
	for i := 0; i < 6; i++ {
		sc.Users = append(sc.Users, User{Pos: cellCenter(sc, 1, 2)})
	}
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Approx(context.Background(), in, Options{S: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	deployed := map[int]bool{}
	for _, loc := range dep.LocationOf {
		if loc >= 0 {
			deployed[loc] = true
		}
	}
	for _, a := range dep.Anchors {
		if !deployed[a] {
			t.Errorf("anchor %d not deployed (locations %v)", a, dep.DeployedLocations())
		}
	}
}

// TestConnectorWithinGUpper validates Lemma 2 empirically on the connector
// SubsetEvaluator.evaluate runs: on a line graph with anchors spaced p_i+1 apart, any
// M2-independent selection connects with at most g(L, p) nodes.
func TestConnectorWithinGUpper(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		s := 1 + r.Intn(3)
		l := s + r.Intn(8)
		p, g, ok := bestShapeFor(l, s)
		if !ok {
			t.Fatal("no shape")
		}
		// Build a long line graph and place anchors consecutively with
		// exactly p_i+1 hop gaps (middle segments sized p_i).
		lineLen := 3*l + 10
		lg := graph.New(lineLen)
		for i := 0; i+1 < lineLen; i++ {
			if err := lg.AddEdge(i, i+1); err != nil {
				t.Fatal(err)
			}
		}
		anchors := make([]int, s)
		pos := p[0] + 1 + r.Intn(3) // leave room on the left
		for i := 0; i < s; i++ {
			if i > 0 {
				pos += p[i] + 1
			}
			anchors[i] = pos
		}
		// The connector reads only the instance's hop rows and path oracle.
		in := &Instance{Paths: graph.NewPathOracle(lg), Hop: make([][]int, lineLen)}
		for a := range in.Hop {
			in.Hop[a] = in.Paths.DistRow(a)
		}
		scr := &evalScratch{nodeMark: make([]bool, lineLen)}
		dist := lg.MultiSourceBFS(anchors)
		q := QValues(l, p)
		hm := len(q) - 1
		// Greedily build a random M2-independent set containing the anchors.
		m2 := matroid.HopCount{Dist: dist, Q: q}
		selected := append([]int(nil), anchors...)
		perm := r.Perm(lineLen)
		for _, v := range perm {
			if len(selected) >= l {
				break
			}
			if dist[v] == 0 || dist[v] == graph.Unreachable || dist[v] > hm {
				continue
			}
			if contains(selected, v) {
				continue
			}
			if m2.CanAddInto(selected, v, make([]int, len(q))) {
				selected = append(selected, v)
			}
		}
		nodes, err := scr.connectLocations(in, selected)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(nodes) > g {
			t.Fatalf("trial %d: connector used %d nodes > g = %d (s=%d L=%d p=%v sel=%v)",
				trial, len(nodes), g, s, l, p, selected)
		}
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestApproxRequiredCells(t *testing.T) {
	t.Parallel()
	sc := testScenario(nil, []int{4, 4, 4})
	for i := 0; i < 6; i++ {
		sc.Users = append(sc.Users, User{Pos: cellCenter(sc, 3, 3)})
	}
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Force the network to touch cell 0 (the corner opposite the users).
	dep, err := Approx(context.Background(), in, Options{S: 2, Workers: 1, RequiredCells: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	checkDeploymentFeasible(t, in, dep)
	found := false
	for _, loc := range dep.DeployedLocations() {
		if loc == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("required cell 0 not deployed: %v", dep.DeployedLocations())
	}
	// The anchor subset itself must contain the required cell.
	hasAnchor := false
	for _, a := range dep.Anchors {
		if a == 0 {
			hasAnchor = true
		}
	}
	if !hasAnchor {
		t.Errorf("anchors %v miss the required cell", dep.Anchors)
	}
	// The constrained run can never beat the free run.
	free, err := Approx(context.Background(), in, Options{S: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Served > free.Served {
		t.Errorf("constrained served %d > free %d", dep.Served, free.Served)
	}
}
