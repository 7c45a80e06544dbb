package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDist2(t *testing.T) {
	tests := []struct {
		name string
		a, b Point2
		want float64
	}{
		{"zero", Point2{}, Point2{}, 0},
		{"unitX", Point2{0, 0}, Point2{1, 0}, 1},
		{"unitY", Point2{0, 0}, Point2{0, 1}, 1},
		{"pythagorean", Point2{0, 0}, Point2{3, 4}, 5},
		{"negative", Point2{-3, -4}, Point2{0, 0}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dist2(tc.a, tc.b); !almostEq(got, tc.want) {
				t.Errorf("Dist2(%v, %v) = %g, want %g", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Bound inputs so the squared terms cannot overflow to +Inf.
		bound := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Point2{bound(ax), bound(ay)}
		b := Point2{bound(bx), bound(by)}
		return almostEq(Dist2(a, b), Dist2(b, a)) && Dist2(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := Point2{r.Float64() * 1000, r.Float64() * 1000}
		b := Point2{r.Float64() * 1000, r.Float64() * 1000}
		c := Point2{r.Float64() * 1000, r.Float64() * 1000}
		if Dist2(a, c) > Dist2(a, b)+Dist2(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestGridValidate(t *testing.T) {
	tests := []struct {
		name    string
		g       Grid
		wantErr bool
	}{
		{"paper-default", Grid{3000, 3000, 500, 300}, false},
		{"fine", Grid{3000, 3000, 50, 300}, false},
		{"rect", Grid{2000, 1000, 250, 100}, false},
		{"zero-area", Grid{0, 3000, 500, 300}, true},
		{"negative-width", Grid{3000, -1, 500, 300}, true},
		{"zero-side", Grid{3000, 3000, 0, 300}, true},
		{"zero-altitude", Grid{3000, 3000, 500, 0}, true},
		{"not-divisible", Grid{3000, 3000, 700, 300}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.g.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestGridDimensions(t *testing.T) {
	g := Grid{Length: 3000, Width: 2000, Side: 500, Altitude: 300}
	if got := g.Cols(); got != 6 {
		t.Errorf("Cols() = %d, want 6", got)
	}
	if got := g.Rows(); got != 4 {
		t.Errorf("Rows() = %d, want 4", got)
	}
	if got := g.NumCells(); got != 24 {
		t.Errorf("NumCells() = %d, want 24", got)
	}
}

func TestGridCenters(t *testing.T) {
	g := Grid{Length: 1000, Width: 500, Side: 500, Altitude: 300}
	centers := g.Centers()
	want := []Point2{{250, 250}, {750, 250}}
	if len(centers) != len(want) {
		t.Fatalf("len(Centers()) = %d, want %d", len(centers), len(want))
	}
	for i := range want {
		if !almostEq(centers[i].X, want[i].X) || !almostEq(centers[i].Y, want[i].Y) {
			t.Errorf("Centers()[%d] = %v, want %v", i, centers[i], want[i])
		}
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := Grid{Length: 3000, Width: 3000, Side: 300, Altitude: 300}
	for i := 0; i < g.NumCells(); i++ {
		col, row := g.CellAt(i)
		if got := g.CellIndex(col, row); got != i {
			t.Fatalf("CellIndex(CellAt(%d)) = %d", i, got)
		}
	}
}

func TestGridCellOf(t *testing.T) {
	g := Grid{Length: 1000, Width: 1000, Side: 500, Altitude: 300}
	tests := []struct {
		name string
		p    Point2
		want int
	}{
		{"first-cell", Point2{100, 100}, 0},
		{"second-col", Point2{600, 100}, 1},
		{"second-row", Point2{100, 600}, 2},
		{"last-cell", Point2{999, 999}, 3},
		{"max-boundary", Point2{1000, 1000}, 3},
		{"outside-clamps", Point2{-50, 2000}, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := g.CellOf(tc.p); got != tc.want {
				t.Errorf("CellOf(%v) = %d, want %d", tc.p, got, tc.want)
			}
		})
	}
}

func TestGridCellOfCenterIsIdentity(t *testing.T) {
	g := Grid{Length: 3000, Width: 3000, Side: 500, Altitude: 300}
	for i, c := range g.Centers() {
		if got := g.CellOf(c); got != i {
			t.Fatalf("CellOf(Centers()[%d]) = %d", i, got)
		}
	}
}

func TestGridContainsAndClamp(t *testing.T) {
	g := Grid{Length: 100, Width: 200, Side: 50, Altitude: 10}
	if !g.Contains(Point2{50, 50}) {
		t.Error("Contains(interior) = false")
	}
	if g.Contains(Point2{150, 50}) {
		t.Error("Contains(outside-x) = true")
	}
	if g.Contains(Point2{50, -1}) {
		t.Error("Contains(outside-y) = true")
	}
	p := g.Clamp(Point2{150, -10})
	if p.X != 100 || p.Y != 0 {
		t.Errorf("Clamp = %v, want {100 0}", p)
	}
}
