package verify

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/uav-coverage/uavnet/internal/assign"
	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/geom"
)

// lineScenario builds a 4x1-cell strip with per-cell user clusters so that
// deployments and their mutations are easy to construct by hand: UAV i can
// only serve users in its own cell (UserRange 300 < 500 cell pitch).
func lineScenario(usersPerCell []int, caps []int) *core.Scenario {
	sc := &core.Scenario{
		Grid:     geom.Grid{Length: 2000, Width: 500, Side: 500, Altitude: 300},
		UAVRange: 600, // only horizontally adjacent cells link
		Channel:  channel.DefaultParams(),
	}
	for cell, n := range usersPerCell {
		for i := 0; i < n; i++ {
			sc.Users = append(sc.Users, core.User{Pos: sc.Grid.Center(cell, 0)})
		}
	}
	for _, c := range caps {
		sc.UAVs = append(sc.UAVs, core.UAV{
			Capacity:  c,
			Tx:        channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3},
			UserRange: 300,
		})
	}
	return sc
}

func mustInstance(t *testing.T, sc *core.Scenario) *core.Instance {
	t.Helper()
	in, err := core.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func approxDeployment(t *testing.T, in *core.Instance) *core.Deployment {
	t.Helper()
	dep, err := core.Approx(context.Background(), in, core.Options{S: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestCleanDeploymentPasses(t *testing.T) {
	t.Parallel()
	in := mustInstance(t, lineScenario([]int{3, 0, 0, 3}, []int{4, 4, 4}))
	dep := approxDeployment(t, in)
	rep := CheckDeployment(in, dep)
	if !rep.OK() {
		t.Fatalf("clean deployment reported: %s", rep)
	}
	if rep.Err() != nil {
		t.Errorf("Err() on clean report = %v", rep.Err())
	}
	if rep.String() != "ok" {
		t.Errorf("String() on clean report = %q", rep.String())
	}
}

// clone deep-copies a deployment so each mutation test works on fresh state.
func clone(dep *core.Deployment) *core.Deployment {
	out := *dep
	out.LocationOf = append([]int(nil), dep.LocationOf...)
	out.Anchors = append([]int(nil), dep.Anchors...)
	out.Selected = append([]int(nil), dep.Selected...)
	out.Assignment.UserStation = append([]int(nil), dep.Assignment.UserStation...)
	out.Assignment.PerStation = append([]int(nil), dep.Assignment.PerStation...)
	return &out
}

// TestMutationsAreCaught hand-breaks one constraint at a time and asserts
// the oracle names exactly that constraint (the ISSUE's mutation check).
func TestMutationsAreCaught(t *testing.T) {
	t.Parallel()
	// Users in cells 0 and 3 of a strip; 3 UAVs must chain 0-1-2-3? No:
	// UAVRange 600 links only adjacent cells, users sit in 0 and 3, so a
	// full chain needs 4 UAVs. Give 4 UAVs so the clean deployment spans
	// the strip and dropping a middle relay disconnects it.
	in := mustInstance(t, lineScenario([]int{3, 0, 0, 3}, []int{4, 4, 4, 4}))
	dep := approxDeployment(t, in)
	if rep := CheckDeployment(in, dep); !rep.OK() {
		t.Fatalf("precondition: clean deployment reported %s", rep)
	}
	if len(dep.DeployedLocations()) != 4 {
		t.Fatalf("precondition: want the full 4-cell chain deployed, got %v", dep.DeployedLocations())
	}

	findUAVAt := func(d *core.Deployment, loc int) int {
		t.Helper()
		for uav, l := range d.LocationOf {
			if l == loc {
				return uav
			}
		}
		t.Fatalf("no UAV at location %d in %v", loc, d.LocationOf)
		return -1
	}

	tests := []struct {
		name   string
		mutate func(*core.Deployment)
		want   Constraint
	}{
		{
			name: "over-assign past C_k",
			mutate: func(d *core.Deployment) {
				// Hand every cell-0 user to the UAV at cell 0 and raise its
				// load past its capacity of 4 by stealing a cell-3 user too.
				uav0 := findUAVAt(d, 0)
				for user := range d.Assignment.UserStation {
					d.Assignment.UserStation[user] = uav0
				}
				d.Assignment.PerStation = make([]int, len(d.LocationOf))
				d.Assignment.PerStation[uav0] = 6
				d.Served = 6
				d.Assignment.Served = 6
			},
			want: ConstraintCapacity,
		},
		{
			name: "drop a relay so the graph disconnects",
			mutate: func(d *core.Deployment) {
				uav1 := findUAVAt(d, 1) // middle of the chain
				d.LocationOf[uav1] = -1
				d.Assignment.PerStation[uav1] = 0
			},
			want: ConstraintConnectivity,
		},
		{
			name: "two UAVs share a cell",
			mutate: func(d *core.Deployment) {
				uav1, uav2 := findUAVAt(d, 1), findUAVAt(d, 2)
				d.LocationOf[uav1] = d.LocationOf[uav2]
			},
			want: ConstraintPlacement,
		},
		{
			name: "user served out of range",
			mutate: func(d *core.Deployment) {
				// A cell-0 user cannot be served from cell 3 (1500 m away,
				// range cap 300 m).
				uav3 := findUAVAt(d, 3)
				user0 := 0 // users are appended cell by cell
				old := d.Assignment.UserStation[user0]
				d.Assignment.UserStation[user0] = uav3
				d.Assignment.PerStation[old]--
				d.Assignment.PerStation[uav3]++
			},
			want: ConstraintMinRate,
		},
		{
			name: "served count drifts",
			mutate: func(d *core.Deployment) {
				d.Served++
			},
			want: ConstraintBookkeeping,
		},
		{
			name: "per-station count drifts",
			mutate: func(d *core.Deployment) {
				d.Assignment.PerStation[findUAVAt(d, 0)]++
			},
			want: ConstraintBookkeeping,
		},
		{
			name: "greedy selection breaks the hop budget",
			mutate: func(d *core.Deployment) {
				// Claim the greedy phase chose more than L_max locations:
				// Q_0 = L_max caps the selection size, so M2 must reject it.
				for len(d.Selected) <= d.Budget.LMax {
					d.Selected = append(d.Selected, d.Selected[0])
				}
			},
			want: ConstraintHopBudget,
		},
		{
			name: "selected location not deployed",
			mutate: func(d *core.Deployment) {
				uav := findUAVAt(d, d.Selected[0])
				d.LocationOf[uav] = -1
				// Keep the assignment consistent: unassign that UAV's users.
				for user, st := range d.Assignment.UserStation {
					if st == uav {
						d.Assignment.UserStation[user] = assign.Unassigned
						d.Assignment.PerStation[uav]--
						d.Served--
						d.Assignment.Served--
					}
				}
			},
			want: ConstraintHopBudget,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			mutated := clone(dep)
			tc.mutate(mutated)
			rep := CheckDeployment(in, mutated)
			if rep.OK() {
				t.Fatalf("mutation went undetected")
			}
			if !rep.Has(tc.want) {
				t.Errorf("violations %s do not name %s", rep, tc.want)
			}
			if err := rep.Err(); err == nil || !strings.Contains(err.Error(), string(tc.want)) {
				t.Errorf("Err() = %v, want mention of %s", err, tc.want)
			}
		})
	}
}

func TestMinRateViolationViaChannel(t *testing.T) {
	t.Parallel()
	// A demanding user rate: the channel model itself must gate the check,
	// independent of the geometric range cap.
	sc := lineScenario([]int{2, 0, 0, 0}, []int{2, 2})
	for i := range sc.Users {
		sc.Users[i].MinRateBps = 2000
	}
	in := mustInstance(t, sc)
	dep := approxDeployment(t, in)
	if rep := CheckDeployment(in, dep); !rep.OK() {
		t.Fatalf("clean deployment reported %s", rep)
	}
	// Build an instance whose UAVs have no explicit range cap but whose
	// users demand an unmeetable rate: only the channel check can fire.
	sc2 := lineScenario([]int{2, 0, 0, 0}, []int{2, 2})
	for i := range sc2.Users {
		sc2.Users[i].MinRateBps = 1e9 // 1 Gbps: unmeetable beyond ~0 m
	}
	for i := range sc2.UAVs {
		sc2.UAVs[i].UserRange = 0 // no geometric cap
	}
	in2 := mustInstance(t, sc2)
	bad := &core.Deployment{
		Algorithm:  "hand",
		LocationOf: []int{0, 1},
		Served:     1,
		Assignment: assign.Assignment{
			Served:      1,
			UserStation: []int{0, assign.Unassigned},
			PerStation:  []int{1, 0},
		},
	}
	rep := CheckDeployment(in2, bad)
	if !rep.Has(ConstraintMinRate) {
		t.Errorf("unmeetable rate not flagged: %s", rep)
	}
}

func TestShapeViolations(t *testing.T) {
	t.Parallel()
	in := mustInstance(t, lineScenario([]int{2, 0, 0, 0}, []int{2, 2}))
	if rep := CheckDeployment(nil, nil); !rep.Has(ConstraintShape) {
		t.Errorf("nil inputs not flagged: %s", rep)
	}
	tests := []struct {
		name string
		dep  *core.Deployment
	}{
		{"wrong LocationOf length", &core.Deployment{LocationOf: []int{0}}},
		{"location out of range", &core.Deployment{LocationOf: []int{0, 99}}},
		{"wrong UserStation length", &core.Deployment{
			LocationOf: []int{0, -1},
			Assignment: assign.Assignment{UserStation: []int{}, PerStation: []int{0, 0}},
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if rep := CheckDeployment(in, tc.dep); !rep.Has(ConstraintShape) {
				t.Errorf("shape problem not flagged: %s", rep)
			}
		})
	}
}

func TestNodeBudgetViolation(t *testing.T) {
	t.Parallel()
	// A hand-built deployment cannot exceed K via LocationOf (one entry per
	// UAV), so the node-budget check is exercised through DeployedCount on a
	// deployment whose length was tampered with consistently.
	in := mustInstance(t, lineScenario([]int{1, 1, 1, 1}, []int{1, 1, 1, 1}))
	dep := approxDeployment(t, in)
	if got := dep.DeployedCount(); got > in.Scenario.K() {
		t.Fatalf("Approx deployed %d > K", got)
	}
	if rep := CheckDeployment(in, dep); !rep.OK() {
		t.Errorf("clean deployment reported %s", rep)
	}
}

// Has reports whether some violation names the given constraint.
func (r Report) Has(c Constraint) bool {
	for _, v := range r.Violations {
		if v.Constraint == c {
			return true
		}
	}
	return false
}

// Err returns nil for a clean report, or an error listing every violation.
func (r Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("verify: %s", r.String())
}
