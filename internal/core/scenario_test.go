package core

import (
	"slices"
	"testing"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/graph"
)

func validScenario() *Scenario {
	return &Scenario{
		Grid:     geom.Grid{Length: 1500, Width: 1500, Side: 500, Altitude: 300},
		UAVRange: 600,
		Channel:  channel.DefaultParams(),
		Users: []User{
			{Pos: geom.Point2{X: 250, Y: 250}, MinRateBps: 2000},
			{Pos: geom.Point2{X: 1250, Y: 1250}, MinRateBps: 2000},
		},
		UAVs: []UAV{
			{Capacity: 100, Tx: channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3}, UserRange: 500},
			{Capacity: 50, Tx: channel.Transmitter{PowerDBm: 24, AntennaGainDBi: 3}, UserRange: 400},
		},
	}
}

func TestScenarioValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr bool
	}{
		{"ok", func(*Scenario) {}, false},
		{"bad-grid", func(s *Scenario) { s.Grid.Side = 0 }, true},
		{"bad-channel", func(s *Scenario) { s.Channel.CarrierHz = 0 }, true},
		{"no-uavs", func(s *Scenario) { s.UAVs = nil }, true},
		{"bad-uav-range", func(s *Scenario) { s.UAVRange = 0 }, true},
		{"negative-capacity", func(s *Scenario) { s.UAVs[0].Capacity = -1 }, true},
		{"negative-user-range", func(s *Scenario) { s.UAVs[1].UserRange = -5 }, true},
		{"negative-rate", func(s *Scenario) { s.Users[0].MinRateBps = -1 }, true},
		{"no-users-ok", func(s *Scenario) { s.Users = nil }, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sc := validScenario()
			tc.mutate(sc)
			if err := sc.Validate(); (err != nil) != tc.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
	t.Run("nil", func(t *testing.T) {
		var sc *Scenario
		if err := sc.Validate(); err == nil {
			t.Error("nil scenario should fail")
		}
	})
}

func TestScenarioDimensions(t *testing.T) {
	sc := validScenario()
	if sc.K() != 2 || sc.N() != 2 || sc.M() != 9 {
		t.Errorf("K,N,M = %d,%d,%d want 2,2,9", sc.K(), sc.N(), sc.M())
	}
}

func TestInstanceLocationGraph(t *testing.T) {
	sc := validScenario() // 3x3 cells, 500 m spacing, 600 m UAV range
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	// 600 m links orthogonal neighbors (500) but not diagonals (707).
	if !slices.Contains(in.LocGraph.Neighbors(0), 1) {
		t.Error("orthogonal neighbors should be linked")
	}
	if slices.Contains(in.LocGraph.Neighbors(0), 4) {
		t.Error("diagonal neighbors should not be linked at 600 m range")
	}
	if slices.Contains(in.LocGraph.Neighbors(0), 2) {
		t.Error("cells 1000 m apart should not be linked")
	}
	// Hop distances: corner to corner is 4 hops on a 3x3 orthogonal grid.
	if in.Hop[0][8] != 4 {
		t.Errorf("Hop[0][8] = %d, want 4", in.Hop[0][8])
	}
	if in.MaxHop() != 4 {
		t.Errorf("MaxHop = %d, want 4", in.MaxHop())
	}
}

func TestInstanceByCapacity(t *testing.T) {
	sc := validScenario()
	sc.UAVs = []UAV{
		{Capacity: 50}, {Capacity: 300}, {Capacity: 50}, {Capacity: 100},
	}
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 0, 2} // 300, 100, then the two 50s by index
	for i, k := range want {
		if in.ByCapacity[i] != k {
			t.Errorf("ByCapacity[%d] = %d, want %d", i, in.ByCapacity[i], k)
		}
	}
}

func TestInstanceEligibility(t *testing.T) {
	sc := validScenario()
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	// User 0 sits at the center of cell 0. UAV 0 (range 500) can serve it
	// from cell 0 (distance 0) and from cell 1 (distance 500).
	if !containsInt(in.EligibleUsers(0, 0), 0) {
		t.Error("UAV 0 at cell 0 should serve user 0")
	}
	if !containsInt(in.EligibleUsers(0, 1), 0) {
		t.Error("UAV 0 at cell 1 (500 m) should serve user 0")
	}
	// UAV 1 has range 400: cell 1 is too far.
	if containsInt(in.EligibleUsers(1, 1), 0) {
		t.Error("UAV 1 at cell 1 should NOT serve user 0 (range 400)")
	}
	if !containsInt(in.EligibleUsers(1, 0), 0) {
		t.Error("UAV 1 at cell 0 should serve user 0")
	}
}

func TestInstanceEligibilityRateConstraint(t *testing.T) {
	sc := validScenario()
	// A user demanding an absurd rate is eligible nowhere, even in range.
	sc.Users = append(sc.Users, User{Pos: geom.Point2{X: 250, Y: 250}, MinRateBps: 1e15})
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	for loc := 0; loc < sc.M(); loc++ {
		for k := 0; k < sc.K(); k++ {
			if containsInt(in.EligibleUsers(k, loc), 2) {
				t.Fatalf("user 2 with impossible rate eligible for UAV %d at %d", k, loc)
			}
		}
	}
}

func TestInstanceEligibilityNoRangeCap(t *testing.T) {
	sc := validScenario()
	// Zero UserRange: eligibility governed by the channel only. With a tiny
	// 1 bps requirement the coverage radius is huge, so every location
	// serves every user.
	for k := range sc.UAVs {
		sc.UAVs[k].UserRange = 0
	}
	for i := range sc.Users {
		sc.Users[i].MinRateBps = 1
	}
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	for loc := 0; loc < sc.M(); loc++ {
		if len(in.EligibleUsers(0, loc)) != sc.N() {
			t.Errorf("loc %d: eligible %d users, want all %d",
				loc, len(in.EligibleUsers(0, loc)), sc.N())
		}
	}
}

func TestInstanceClassSharing(t *testing.T) {
	sc := validScenario()
	// Same front-end and range -> same class, despite different capacities.
	sc.UAVs = []UAV{
		{Capacity: 10, Tx: channel.Transmitter{PowerDBm: 30}, UserRange: 500},
		{Capacity: 99, Tx: channel.Transmitter{PowerDBm: 30}, UserRange: 500},
		{Capacity: 10, Tx: channel.Transmitter{PowerDBm: 20}, UserRange: 500},
	}
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	if in.ClassOf[0] != in.ClassOf[1] {
		t.Error("UAVs 0 and 1 should share a class")
	}
	if in.ClassOf[0] == in.ClassOf[2] {
		t.Error("UAV 2 has different power, should be a different class")
	}
	if len(in.Eligible) != 2 {
		t.Errorf("expected 2 classes, got %d", len(in.Eligible))
	}
}

func TestInstanceCapacityHelpers(t *testing.T) {
	sc := validScenario()
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.TotalCapacity(); got != 150 {
		t.Errorf("TotalCapacity = %d, want 150", got)
	}
	if got := in.CoverageUpperBound(); got != 2 {
		t.Errorf("CoverageUpperBound = %d, want 2 (user-bound)", got)
	}
	sc2 := validScenario()
	sc2.UAVs = []UAV{{Capacity: 1}}
	in2, err := NewInstance(sc2)
	if err != nil {
		t.Fatal(err)
	}
	if got := in2.CoverageUpperBound(); got != 1 {
		t.Errorf("CoverageUpperBound = %d, want 1 (capacity-bound)", got)
	}
}

func TestInstanceDisconnectedGridHops(t *testing.T) {
	sc := validScenario()
	sc.UAVRange = 100 // nothing links
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	if in.Hop[0][1] != graph.Unreachable {
		t.Errorf("Hop[0][1] = %d, want unreachable", in.Hop[0][1])
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// MaxHop returns the largest finite pairwise hop distance in the location
// graph (its hop diameter), useful for sizing searches.
func (in *Instance) MaxHop() int {
	maxHop := 0
	for a := range in.Hop {
		for _, d := range in.Hop[a] {
			if d > maxHop {
				maxHop = d
			}
		}
	}
	return maxHop
}
