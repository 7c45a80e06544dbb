// Package verify is the machine-checkable feasibility oracle for the maximum
// connected coverage problem: CheckDeployment re-derives every constraint of
// Section II-C (and the matroid structure of Section III) for a returned
// Deployment from first principles — it does not trust the precomputed
// eligibility lists for rate checks — and reports each violated invariant as
// a structured Violation instead of a bare bool.
//
// On top of the oracle, diff.go provides a deterministic differential
// harness that runs approAlg, every baseline, and the brute-force optimum on
// small seeded random scenarios and cross-checks them; fuzz_test.go wires
// both into Go native fuzzing. Every later refactor or optimization PR leans
// on this package as its correctness backstop.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"github.com/uav-coverage/uavnet/internal/assign"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/matroid"
)

// Constraint names one paper invariant checked by CheckDeployment.
type Constraint string

// The invariants, in roughly the order Section II-C and Section III state
// them. Violation.Constraint always carries one of these values.
const (
	// ConstraintShape: the deployment's slices have the scenario's
	// dimensions and every location index is a valid cell or -1.
	ConstraintShape Constraint = "shape"
	// ConstraintPlacement is matroid M1: each UAV occupies at most one cell
	// and no two UAVs share a cell.
	ConstraintPlacement Constraint = "placement-M1"
	// ConstraintNodeBudget: at most K UAVs are deployed.
	ConstraintNodeBudget Constraint = "node-budget"
	// ConstraintCapacity: UAV k serves at most C_k users.
	ConstraintCapacity Constraint = "capacity"
	// ConstraintMinRate: every assigned user receives at least its minimum
	// data rate from its UAV and lies within the UAV's explicit range cap.
	// Rates are recomputed from the channel model, not the eligibility lists.
	ConstraintMinRate Constraint = "min-rate"
	// ConstraintConnectivity: the deployed UAV network is connected under
	// R_uav.
	ConstraintConnectivity Constraint = "connectivity"
	// ConstraintHopBudget is matroid M2: the greedy-selected locations of an
	// approAlg deployment respect the hop-count caps Q_h (Eq. (1)) around
	// the winning anchors.
	ConstraintHopBudget Constraint = "hop-budget-M2"
	// ConstraintBookkeeping: Served, UserStation and PerStation agree with
	// each other.
	ConstraintBookkeeping Constraint = "bookkeeping"
)

// Violation is one broken invariant. UAV, User and Loc identify the
// offending entities where applicable, -1 otherwise.
type Violation struct {
	Constraint Constraint
	UAV        int
	User       int
	Loc        int
	Detail     string
}

// String renders the violation for failure messages.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Constraint, v.Detail)
}

// Report is the oracle's output: the full list of violated invariants.
type Report struct {
	Violations []Violation
}

// OK reports whether the deployment satisfies every checked invariant.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// String renders the report; "ok" when clean.
func (r Report) String() string {
	if r.OK() {
		return "ok"
	}
	parts := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%d violation(s): %s", len(r.Violations), strings.Join(parts, "; "))
}

func (r *Report) add(c Constraint, uav, user, loc int, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Constraint: c, UAV: uav, User: user, Loc: loc,
		Detail: fmt.Sprintf(format, args...),
	})
}

// rateSlack is the relative tolerance on the recomputed data rate: the
// eligibility radius comes from a millimeter-tolerance bisection of a
// monotone rate curve, so any honest assignment clears the requirement by
// far more than this.
const rateSlack = 1e-9

// CheckDeployment validates every paper invariant of dep against the
// instance it was computed on and returns the violations found. A nil
// instance or deployment yields a single shape violation. The oracle is
// read-only and safe for concurrent use on a shared instance.
//
// Aggregated instances (core.NewAggregateInstance) need no special casing:
// deployments always carry fully expanded per-user assignments, and every
// check below re-derives rates, ranges and capacities from the scenario's
// individual users — never from the (cell-granular) eligibility lists — so
// a deployment that only holds in aggregate but violates some member user's
// constraint is caught here.
func CheckDeployment(in *core.Instance, dep *core.Deployment) Report {
	var r Report
	if in == nil || dep == nil {
		r.add(ConstraintShape, -1, -1, -1, "nil instance or deployment")
		return r
	}
	sc := in.Scenario
	k, n, m := sc.K(), sc.N(), sc.M()

	// Shape: slice dimensions and location ranges.
	if len(dep.LocationOf) != k {
		r.add(ConstraintShape, -1, -1, -1,
			"LocationOf has %d entries for %d UAVs", len(dep.LocationOf), k)
		return r // everything below indexes by UAV
	}
	for uav, loc := range dep.LocationOf {
		if loc < -1 || loc >= m {
			r.add(ConstraintShape, uav, -1, loc,
				"UAV %d at location %d outside [-1,%d)", uav, loc, m)
			return r
		}
	}
	if len(dep.Assignment.UserStation) != n {
		r.add(ConstraintShape, -1, -1, -1,
			"UserStation has %d entries for %d users", len(dep.Assignment.UserStation), n)
		return r
	}
	if len(dep.Assignment.PerStation) != k {
		r.add(ConstraintShape, -1, -1, -1,
			"PerStation has %d entries for %d UAVs", len(dep.Assignment.PerStation), k)
		return r
	}

	// M1: each UAV at most once per cell, no shared cells. (One UAV per
	// entry of LocationOf makes "each UAV placed at most once" structural;
	// the checkable half of the partition matroid is cell exclusivity.)
	cellOwner := map[int]int{}
	for uav, loc := range dep.LocationOf {
		if loc < 0 {
			continue
		}
		if prev, dup := cellOwner[loc]; dup {
			r.add(ConstraintPlacement, uav, -1, loc,
				"UAVs %d and %d share cell %d", prev, uav, loc)
		} else {
			cellOwner[loc] = uav
		}
	}

	// Node budget: at most K deployed (structural given len == K, but kept
	// explicit so hand-built deployments are caught).
	if dc := dep.DeployedCount(); dc > k {
		r.add(ConstraintNodeBudget, -1, -1, -1, "deployed %d UAVs with K = %d", dc, k)
	}

	// Per-user checks: assignment targets, minimum rate, range cap.
	perUAV := make([]int, k)
	assigned := 0
	for user, uav := range dep.Assignment.UserStation {
		if uav == assign.Unassigned {
			continue
		}
		assigned++
		if uav < 0 || uav >= k {
			r.add(ConstraintShape, uav, user, -1,
				"user %d assigned to UAV %d outside [0,%d)", user, uav, k)
			continue
		}
		perUAV[uav]++
		loc := dep.LocationOf[uav]
		if loc < 0 {
			r.add(ConstraintMinRate, uav, user, -1,
				"user %d assigned to grounded UAV %d", user, uav)
			continue
		}
		u := sc.UAVs[uav]
		d := geom.Dist2(sc.Users[user].Pos, in.Centers[loc])
		if u.UserRange > 0 && d > u.UserRange*(1+rateSlack) {
			r.add(ConstraintMinRate, uav, user, loc,
				"user %d is %.1f m from UAV %d, range cap %.1f m", user, d, uav, u.UserRange)
			continue
		}
		want := sc.Users[user].MinRateBps
		if want > 0 {
			got := sc.Channel.UserRateBps(u.Tx, d, sc.Grid.Altitude)
			if got < want*(1-rateSlack) {
				r.add(ConstraintMinRate, uav, user, loc,
					"user %d gets %.1f bps from UAV %d, needs %.1f", user, got, uav, want)
			}
		}
	}

	// Capacity C_k and PerStation bookkeeping.
	for uav, count := range perUAV {
		if c := sc.UAVs[uav].Capacity; count > c {
			r.add(ConstraintCapacity, uav, -1, dep.LocationOf[uav],
				"UAV %d serves %d users, capacity %d", uav, count, c)
		}
		if got := dep.Assignment.PerStation[uav]; got != count {
			r.add(ConstraintBookkeeping, uav, -1, -1,
				"PerStation[%d] = %d but UserStation assigns %d", uav, got, count)
		}
	}
	if dep.Served != assigned {
		r.add(ConstraintBookkeeping, -1, -1, -1,
			"Served = %d but UserStation assigns %d users", dep.Served, assigned)
	}
	if dep.Assignment.Served != assigned {
		r.add(ConstraintBookkeeping, -1, -1, -1,
			"Assignment.Served = %d but UserStation assigns %d users", dep.Assignment.Served, assigned)
	}

	// Connectivity of the deployed network under R_uav.
	locs := dep.DeployedLocations()
	if len(locs) > 0 && !in.LocGraph.Connected(locs) {
		r.add(ConstraintConnectivity, -1, -1, -1,
			"deployed locations %v are not connected within R_uav = %g m", locs, sc.UAVRange)
	}

	checkHopBudget(in, dep, &r)
	return r
}

// checkHopBudget re-checks matroid M2 for approAlg deployments: the
// greedy-selected locations must stay independent under the hop-count caps
// QValues(L_max, p*) measured from the winning anchor subset, and must all
// be deployed. Deployments without anchors or a selection (baselines,
// brute force, hand placements) carry no hop structure and are skipped.
func checkHopBudget(in *core.Instance, dep *core.Deployment, r *Report) {
	if len(dep.Anchors) == 0 || len(dep.Selected) == 0 {
		return
	}
	m := in.Scenario.M()
	for _, a := range dep.Anchors {
		if a < 0 || a >= m {
			r.add(ConstraintShape, -1, -1, a, "anchor %d outside [0,%d)", a, m)
			return
		}
	}
	deployed := map[int]bool{}
	for _, loc := range dep.DeployedLocations() {
		deployed[loc] = true
	}
	for _, v := range dep.Selected {
		if v < 0 || v >= m {
			r.add(ConstraintShape, -1, -1, v, "selected location %d outside [0,%d)", v, m)
			return
		}
		if !deployed[v] {
			r.add(ConstraintHopBudget, -1, -1, v,
				"greedy-selected location %d received no UAV", v)
		}
	}
	if dep.Budget.LMax <= 0 || len(dep.Budget.P) == 0 {
		r.add(ConstraintHopBudget, -1, -1, -1,
			"deployment has anchors but no Algorithm 1 budget to check against")
		return
	}
	if len(dep.Selected) > dep.Budget.LMax {
		r.add(ConstraintHopBudget, -1, -1, -1,
			"greedy selected %d locations, budget L_max = %d", len(dep.Selected), dep.Budget.LMax)
	}
	dist := in.LocGraph.MultiSourceBFS(dep.Anchors)
	m2 := matroid.HopCount{Dist: dist, Q: core.QValues(dep.Budget.LMax, dep.Budget.P)}
	if !m2.Independent(dep.Selected) {
		sorted := append([]int(nil), dep.Selected...)
		sort.Ints(sorted)
		r.add(ConstraintHopBudget, -1, -1, -1,
			"selected locations %v violate the hop-count caps Q = %v around anchors %v",
			sorted, m2.Q, dep.Anchors)
	}
}
