package workload

import (
	"math"
	"testing"

	"github.com/uav-coverage/uavnet/internal/geom"
)

func testGrid() geom.Grid {
	return geom.Grid{Length: 3000, Width: 3000, Side: 500, Altitude: 300}
}

func TestUsersCountAndBounds(t *testing.T) {
	grid := testGrid()
	for _, dist := range []Distribution{FatTailed, Uniform, SingleHotspot} {
		t.Run(dist.String(), func(t *testing.T) {
			users, err := UsersWithOptions(grid, 500, dist, 42, UserOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(users) != 500 {
				t.Fatalf("got %d users, want 500", len(users))
			}
			for i, p := range users {
				if !grid.Contains(p) {
					t.Errorf("user %d at %v outside area", i, p)
				}
			}
		})
	}
}

func TestUsersDeterministic(t *testing.T) {
	grid := testGrid()
	a, err := UsersWithOptions(grid, 200, FatTailed, 7, UserOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := UsersWithOptions(grid, 200, FatTailed, 7, UserOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("user %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUsersSeedsDiffer(t *testing.T) {
	grid := testGrid()
	a, _ := UsersWithOptions(grid, 100, FatTailed, 1, UserOptions{})
	b, _ := UsersWithOptions(grid, 100, FatTailed, 2, UserOptions{})
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical users")
	}
}

func TestUsersErrors(t *testing.T) {
	grid := testGrid()
	if _, err := UsersWithOptions(grid, -1, Uniform, 0, UserOptions{}); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := UsersWithOptions(geom.Grid{}, 10, Uniform, 0, UserOptions{}); err == nil {
		t.Error("invalid grid should fail")
	}
	if _, err := UsersWithOptions(grid, 10, Distribution(99), 0, UserOptions{}); err == nil {
		t.Error("unknown distribution should fail")
	}
}

func TestUsersZero(t *testing.T) {
	users, err := UsersWithOptions(testGrid(), 0, FatTailed, 3, UserOptions{})
	if err != nil || len(users) != 0 {
		t.Errorf("n=0: users=%v err=%v", users, err)
	}
}

func TestFatTailedIsSkewed(t *testing.T) {
	grid := testGrid()
	fat, err := UsersWithOptions(grid, 3000, FatTailed, 11, UserOptions{})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := UsersWithOptions(grid, 3000, Uniform, 11, UserOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gFat := GiniCoefficient(grid, fat)
	gUni := GiniCoefficient(grid, uni)
	if gFat <= gUni {
		t.Errorf("fat-tailed Gini %g should exceed uniform Gini %g", gFat, gUni)
	}
	if gFat < 0.5 {
		t.Errorf("fat-tailed Gini %g, want strong skew (>= 0.5)", gFat)
	}
}

func TestCapacities(t *testing.T) {
	caps, err := Capacities(20, 50, 300, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 20 {
		t.Fatalf("got %d capacities", len(caps))
	}
	distinct := map[int]bool{}
	for _, c := range caps {
		if c < 50 || c > 300 {
			t.Errorf("capacity %d outside [50,300]", c)
		}
		distinct[c] = true
	}
	if len(distinct) < 2 {
		t.Error("fleet is not heterogeneous")
	}
}

func TestCapacitiesDegenerate(t *testing.T) {
	caps, err := Capacities(5, 100, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps {
		if c != 100 {
			t.Errorf("capacity %d, want 100", c)
		}
	}
}

func TestCapacitiesErrors(t *testing.T) {
	if _, err := Capacities(-1, 0, 10, 0); err == nil {
		t.Error("negative k should fail")
	}
	if _, err := Capacities(3, -5, 10, 0); err == nil {
		t.Error("negative cmin should fail")
	}
	if _, err := Capacities(3, 10, 5, 0); err == nil {
		t.Error("cmax < cmin should fail")
	}
}

func TestCapacitiesDeterministic(t *testing.T) {
	a, _ := Capacities(10, 50, 300, 4)
	b, _ := Capacities(10, 50, 300, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("capacities not deterministic")
		}
	}
}

func TestGiniEdgeCases(t *testing.T) {
	grid := testGrid()
	if g := GiniCoefficient(grid, nil); g != 0 {
		t.Errorf("Gini(empty) = %g", g)
	}
	// All users in one cell: Gini approaches 1 - 1/m.
	var pts []geom.Point2
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Point2{X: 10, Y: 10})
	}
	g := GiniCoefficient(grid, pts)
	if g < 0.9 {
		t.Errorf("Gini(single-cell) = %g, want near 1", g)
	}
}

func TestDistributionString(t *testing.T) {
	if FatTailed.String() != "fat-tailed" || Uniform.String() != "uniform" ||
		SingleHotspot.String() != "single-hotspot" {
		t.Error("distribution names wrong")
	}
	if Distribution(42).String() == "" {
		t.Error("unknown distribution should still print")
	}
}

// GiniCoefficient measures the spatial skew of positions over the grid's
// cells: 0 means perfectly even occupancy, values near 1 mean extreme
// concentration. The tests use it to verify the fat-tailed generator
// actually produces a skewed density.
func GiniCoefficient(grid geom.Grid, positions []geom.Point2) float64 {
	m := grid.NumCells()
	if m == 0 || len(positions) == 0 {
		return 0
	}
	counts := make([]float64, m)
	for _, p := range positions {
		counts[grid.CellOf(p)]++
	}
	// Gini = sum_i sum_j |x_i - x_j| / (2 n^2 mean).
	var num float64
	for i := range counts {
		for j := range counts {
			num += math.Abs(counts[i] - counts[j])
		}
	}
	mean := float64(len(positions)) / float64(m)
	return num / (2 * float64(m) * float64(m) * mean)
}
