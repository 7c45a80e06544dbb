package assign

import (
	"math/rand"
	"testing"
)

func TestSolveSimple(t *testing.T) {
	t.Parallel()
	// Two stations: station 0 (cap 1) can serve users 0,1; station 1 (cap 2)
	// can serve users 1,2. All three users can be served.
	p := Problem{
		NumUsers:   3,
		Capacities: []int{1, 2},
		Eligible:   [][]int{{0, 1}, {1, 2}},
	}
	a, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != 3 {
		t.Errorf("Served = %d, want 3", a.Served)
	}
	checkFeasible(t, p, a)
}

func TestSolveCapacityBinds(t *testing.T) {
	t.Parallel()
	p := Problem{
		NumUsers:   5,
		Capacities: []int{2},
		Eligible:   [][]int{{0, 1, 2, 3, 4}},
	}
	a, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != 2 {
		t.Errorf("Served = %d, want 2 (capacity-bound)", a.Served)
	}
	checkFeasible(t, p, a)
}

func TestSolveUnreachableUsers(t *testing.T) {
	t.Parallel()
	p := Problem{
		NumUsers:   4,
		Capacities: []int{10},
		Eligible:   [][]int{{1}},
	}
	a, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != 1 {
		t.Errorf("Served = %d, want 1", a.Served)
	}
	if a.UserStation[0] != Unassigned || a.UserStation[2] != Unassigned {
		t.Errorf("unreachable users assigned: %v", a.UserStation)
	}
}

func TestSolveEmpty(t *testing.T) {
	t.Parallel()
	a, err := Solve(Problem{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != 0 || len(a.UserStation) != 0 {
		t.Errorf("empty problem: %+v", a)
	}
}

func TestSolveNoStations(t *testing.T) {
	t.Parallel()
	a, err := Solve(Problem{NumUsers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != 0 {
		t.Errorf("Served = %d, want 0", a.Served)
	}
}

func TestValidateErrors(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		p    Problem
	}{
		{"negative-users", Problem{NumUsers: -1}},
		{"mismatched-lists", Problem{NumUsers: 1, Capacities: []int{1}}},
		{"negative-capacity", Problem{NumUsers: 1, Capacities: []int{-1}, Eligible: [][]int{{}}}},
		{"user-out-of-range", Problem{NumUsers: 1, Capacities: []int{1}, Eligible: [][]int{{5}}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Solve(tc.p); err == nil {
				t.Error("Solve succeeded, want error")
			}
		})
	}
}

// checkFeasible verifies the assignment respects eligibility and capacities
// and that Served/PerStation are consistent.
func checkFeasible(t *testing.T, p Problem, a Assignment) {
	t.Helper()
	counted := make([]int, len(p.Capacities))
	served := 0
	for u, st := range a.UserStation {
		if st == Unassigned {
			continue
		}
		served++
		counted[st]++
		ok := false
		for _, e := range p.Eligible[st] {
			if e == u {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("user %d assigned to station %d but not eligible", u, st)
		}
	}
	if served != a.Served {
		t.Errorf("Served = %d but %d users assigned", a.Served, served)
	}
	for k := range counted {
		if counted[k] != a.PerStation[k] {
			t.Errorf("PerStation[%d] = %d, want %d", k, a.PerStation[k], counted[k])
		}
		if counted[k] > p.Capacities[k] {
			t.Errorf("station %d over capacity: %d > %d", k, counted[k], p.Capacities[k])
		}
	}
}

// bruteServed exhaustively maximizes served users for tiny instances by
// trying all assignments user-by-user.
func bruteServed(p Problem, user int, remaining []int, eligibleSet []map[int]bool) int {
	if user == p.NumUsers {
		return 0
	}
	// Option 1: leave the user unserved.
	best := bruteServed(p, user+1, remaining, eligibleSet)
	// Option 2: assign to any eligible station with remaining capacity.
	for k := range remaining {
		if remaining[k] > 0 && eligibleSet[k][user] {
			remaining[k]--
			if got := 1 + bruteServed(p, user+1, remaining, eligibleSet); got > best {
				best = got
			}
			remaining[k]++
		}
	}
	return best
}

func TestSolveOptimalAgainstBruteForceProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(2023))
	for trial := 0; trial < 120; trial++ {
		n := 1 + r.Intn(7)
		k := 1 + r.Intn(3)
		p := Problem{NumUsers: n, Capacities: make([]int, k), Eligible: make([][]int, k)}
		eligibleSet := make([]map[int]bool, k)
		for j := 0; j < k; j++ {
			p.Capacities[j] = r.Intn(4)
			eligibleSet[j] = map[int]bool{}
			for u := 0; u < n; u++ {
				if r.Intn(2) == 0 {
					p.Eligible[j] = append(p.Eligible[j], u)
					eligibleSet[j][u] = true
				}
			}
		}
		a, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		checkFeasible(t, p, a)
		remaining := append([]int(nil), p.Capacities...)
		want := bruteServed(p, 0, remaining, eligibleSet)
		if a.Served != want {
			t.Fatalf("trial %d: Solve served %d, optimum %d (p=%+v)", trial, a.Served, want, p)
		}
	}
}
