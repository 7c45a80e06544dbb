package mobility

import (
	"math"
	"testing"

	"github.com/uav-coverage/uavnet/internal/geom"
)

func testGrid() geom.Grid {
	return geom.Grid{Length: 3000, Width: 3000, Side: 500, Altitude: 300}
}

func startPositions(n int) []geom.Point2 {
	out := make([]geom.Point2, n)
	for i := range out {
		out[i] = geom.Point2{X: 1500, Y: 1500}
	}
	return out
}

func TestNewRandomWaypointErrors(t *testing.T) {
	grid := testGrid()
	if _, err := NewRandomWaypoint(geom.Grid{}, 5, 1, 2, 0); err == nil {
		t.Error("invalid grid should fail")
	}
	if _, err := NewRandomWaypoint(grid, -1, 1, 2, 0); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := NewRandomWaypoint(grid, 5, -1, 2, 0); err == nil {
		t.Error("negative speed should fail")
	}
	if _, err := NewRandomWaypoint(grid, 5, 3, 2, 0); err == nil {
		t.Error("max < min speed should fail")
	}
}

func TestRandomWaypointMovesUsersWithinArea(t *testing.T) {
	grid := testGrid()
	m, err := NewRandomWaypoint(grid, 50, 1, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	pos := startPositions(50)
	orig := append([]geom.Point2(nil), pos...)
	for step := 0; step < 20; step++ {
		if err := m.Step(pos, 10); err != nil {
			t.Fatal(err)
		}
		for i, p := range pos {
			if !grid.Contains(p) {
				t.Fatalf("user %d left the area: %v", i, p)
			}
		}
	}
	moved := 0
	for i := range pos {
		if pos[i] != orig[i] {
			moved++
		}
	}
	if moved < 45 {
		t.Errorf("only %d/50 users moved", moved)
	}
}

func TestRandomWaypointSpeedBound(t *testing.T) {
	grid := testGrid()
	const maxSpeed = 2.0
	m, err := NewRandomWaypoint(grid, 30, 1, maxSpeed, 3)
	if err != nil {
		t.Fatal(err)
	}
	pos := startPositions(30)
	prev := append([]geom.Point2(nil), pos...)
	const dt = 5.0
	for step := 0; step < 10; step++ {
		if err := m.Step(pos, dt); err != nil {
			t.Fatal(err)
		}
		for i := range pos {
			if d := geom.Dist2(prev[i], pos[i]); d > maxSpeed*dt+1e-9 {
				t.Fatalf("user %d moved %g m in %g s (max %g)", i, d, dt, maxSpeed*dt)
			}
		}
		copy(prev, pos)
	}
}

func TestRandomWaypointStepErrors(t *testing.T) {
	m, err := NewRandomWaypoint(testGrid(), 3, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(startPositions(2), 1); err == nil {
		t.Error("wrong population size should fail")
	}
	if err := m.Step(startPositions(3), 0); err == nil {
		t.Error("zero dt should fail")
	}
}

func TestNewLevyFlightErrors(t *testing.T) {
	grid := testGrid()
	if _, err := NewLevyFlight(geom.Grid{}, 1.6, 1, 100, 0.5, 0); err == nil {
		t.Error("invalid grid should fail")
	}
	if _, err := NewLevyFlight(grid, 0, 1, 100, 0.5, 0); err == nil {
		t.Error("alpha 0 should fail")
	}
	if _, err := NewLevyFlight(grid, 1.6, 0, 100, 0.5, 0); err == nil {
		t.Error("zero min jump should fail")
	}
	if _, err := NewLevyFlight(grid, 1.6, 100, 1, 0.5, 0); err == nil {
		t.Error("max < min jump should fail")
	}
	if _, err := NewLevyFlight(grid, 1.6, 1, 100, 1.5, 0); err == nil {
		t.Error("probability > 1 should fail")
	}
}

func TestLevyFlightStaysInAreaAndIsHeavyTailed(t *testing.T) {
	grid := testGrid()
	m, err := NewLevyFlight(grid, 1.6, 10, 2000, 1.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Sample many jump lengths: heavy tail means some long jumps appear but
	// the median stays near the minimum.
	var lengths []float64
	for i := 0; i < 5000; i++ {
		lengths = append(lengths, m.jumpLength())
	}
	long, short := 0, 0
	for _, l := range lengths {
		if l < 10-1e-9 || l > 2000+1e-9 {
			t.Fatalf("jump %g outside truncation [10, 2000]", l)
		}
		if l > 500 {
			long++
		}
		if l < 30 {
			short++
		}
	}
	if long == 0 {
		t.Error("no long jumps: tail not heavy")
	}
	if short < len(lengths)/3 {
		t.Errorf("only %d short jumps; body should dominate", short)
	}

	pos := startPositions(40)
	for step := 0; step < 30; step++ {
		if err := m.Step(pos, 1); err != nil {
			t.Fatal(err)
		}
		for i, p := range pos {
			if !grid.Contains(p) {
				t.Fatalf("user %d left area: %v", i, p)
			}
		}
	}
}

func TestLevyFlightMoveProbability(t *testing.T) {
	grid := testGrid()
	m, err := NewLevyFlight(grid, 1.6, 10, 100, 0, 5) // never moves
	if err != nil {
		t.Fatal(err)
	}
	pos := startPositions(10)
	if err := m.Step(pos, 1); err != nil {
		t.Fatal(err)
	}
	for i, p := range pos {
		if p != (geom.Point2{X: 1500, Y: 1500}) {
			t.Errorf("user %d moved with moveProb 0: %v", i, p)
		}
	}
}

func TestDisplacement(t *testing.T) {
	a := []geom.Point2{{X: 0, Y: 0}, {X: 0, Y: 0}}
	b := []geom.Point2{{X: 3, Y: 4}, {X: 0, Y: 0}}
	got, err := Displacement(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Displacement = %g, want 2.5", got)
	}
	if _, err := Displacement(a, b[:1]); err == nil {
		t.Error("length mismatch should fail")
	}
	zero, err := Displacement(nil, nil)
	if err != nil || zero != 0 {
		t.Errorf("empty displacement = %g, %v", zero, err)
	}
}

func TestModelsDeterministic(t *testing.T) {
	grid := testGrid()
	run := func() []geom.Point2 {
		m, err := NewLevyFlight(grid, 1.6, 10, 500, 0.7, 42)
		if err != nil {
			t.Fatal(err)
		}
		pos := startPositions(20)
		for i := 0; i < 10; i++ {
			if err := m.Step(pos, 1); err != nil {
				t.Fatal(err)
			}
		}
		return pos
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("user %d differs across identical seeded runs", i)
		}
	}
}
