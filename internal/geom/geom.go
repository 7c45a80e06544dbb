// Package geom provides the planar geometry primitives used by the UAV
// deployment algorithms: points, distances, and the discretization of a
// rectangular disaster area into a grid of candidate hovering locations.
//
// The model follows Section II-A of the paper: the disaster zone is a
// rectangle of size Length x Width on the ground (z = 0); UAVs hover on a
// plane at a fixed altitude, and that plane is partitioned into square grids
// of a given side length whose centers are the candidate hovering locations.
package geom

import (
	"fmt"
	"math"
)

// Point2 is a point in the ground plane (meters).
type Point2 struct {
	X, Y float64
}

// Dist2 returns the Euclidean distance between two planar points.
func Dist2(a, b Point2) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// Grid describes the discretization of the hovering plane of a rectangular
// disaster area (Section II-A): the plane at the UAV altitude is partitioned
// into squares of side Side, and the square centers are the candidate
// hovering locations v_1 .. v_m.
type Grid struct {
	// Length is the extent of the area along the x axis (alpha), in meters.
	Length float64
	// Width is the extent of the area along the y axis (beta), in meters.
	Width float64
	// Side is the side length of one grid square (lambda), in meters.
	Side float64
	// Altitude is the hovering altitude of every UAV (H_uav), in meters.
	Altitude float64
}

// Validate reports whether the grid parameters are usable. Length and Width
// must be positive multiples of Side (the paper assumes divisibility), and
// Altitude must be positive. Every field must be finite: an infinite Side
// would divide any area into zero cells.
func (g Grid) Validate() error {
	for _, x := range []float64{g.Length, g.Width, g.Side, g.Altitude} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("geom: grid %+v has a non-finite field", g)
		}
	}
	switch {
	case g.Length <= 0 || g.Width <= 0:
		return fmt.Errorf("geom: grid area %gx%g must be positive", g.Length, g.Width)
	case g.Side <= 0:
		return fmt.Errorf("geom: grid side %g must be positive", g.Side)
	case g.Altitude <= 0:
		return fmt.Errorf("geom: altitude %g must be positive", g.Altitude)
	}
	if !divisible(g.Length, g.Side) || !divisible(g.Width, g.Side) {
		return fmt.Errorf("geom: area %gx%g is not divisible by grid side %g", g.Length, g.Width, g.Side)
	}
	return nil
}

func divisible(a, s float64) bool {
	q := a / s
	return math.Abs(q-math.Round(q)) < 1e-9
}

// Cols returns the number of grid columns (along x).
func (g Grid) Cols() int { return int(math.Round(g.Length / g.Side)) }

// Rows returns the number of grid rows (along y).
func (g Grid) Rows() int { return int(math.Round(g.Width / g.Side)) }

// NumCells returns m, the total number of candidate hovering locations.
func (g Grid) NumCells() int { return g.Cols() * g.Rows() }

// Center returns the planar center of cell (col, row). Cells are indexed
// from 0; the caller must ensure 0 <= col < Cols() and 0 <= row < Rows().
func (g Grid) Center(col, row int) Point2 {
	return Point2{
		X: (float64(col) + 0.5) * g.Side,
		Y: (float64(row) + 0.5) * g.Side,
	}
}

// CellIndex returns the linear index of cell (col, row) in row-major order.
func (g Grid) CellIndex(col, row int) int { return row*g.Cols() + col }

// CellAt returns the (col, row) coordinates of the linear cell index i.
func (g Grid) CellAt(i int) (col, row int) {
	c := g.Cols()
	return i % c, i / c
}

// Centers returns the planar centers of all m cells in row-major order.
// The result is freshly allocated on each call.
func (g Grid) Centers() []Point2 {
	cols, rows := g.Cols(), g.Rows()
	out := make([]Point2, 0, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out = append(out, g.Center(c, r))
		}
	}
	return out
}

// Contains reports whether a ground point lies inside the area rectangle.
//
//uavlint:allow testonly -- the workload and mobility tests check generated positions with it
func (g Grid) Contains(p Point2) bool {
	return p.X >= 0 && p.X <= g.Length && p.Y >= 0 && p.Y <= g.Width
}

// Clamp returns p moved to the nearest point inside the area rectangle.
func (g Grid) Clamp(p Point2) Point2 {
	return Point2{
		X: math.Min(math.Max(p.X, 0), g.Length),
		Y: math.Min(math.Max(p.Y, 0), g.Width),
	}
}

// CellOf returns the linear index of the cell containing the planar point p,
// clamping p into the area first. Points exactly on the max boundary map to
// the last cell.
//
// The quotients are floored with an epsilon rather than truncated: a point
// whose coordinate sits mathematically on a cell boundary k*Side can compute
// as k - 1e-12 in floating point, and plain int(...) would then charge it to
// cell k-1 — the same truncation class as the netsim.StableCapacity
// off-by-one. Boundary points belong to the upper cell by convention, so the
// epsilon only restores the intended attribution.
func (g Grid) CellOf(p Point2) int {
	p = g.Clamp(p)
	col := int(math.Floor(p.X/g.Side + 1e-9))
	if col >= g.Cols() {
		col = g.Cols() - 1
	}
	row := int(math.Floor(p.Y/g.Side + 1e-9))
	if row >= g.Rows() {
		row = g.Rows() - 1
	}
	return g.CellIndex(col, row)
}
