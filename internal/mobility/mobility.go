// Package mobility provides ground-user movement models and the periodic
// re-deployment loop sketched in Section II-C of the paper: users in the
// disaster zone move around, an initially optimal UAV placement degrades,
// and the operator re-runs the deployment algorithm on fresh position
// estimates (in the paper, detected from on-board camera imagery [11], [12]).
//
// Two models are provided: the classic random-waypoint model and a truncated
// Lévy flight, whose heavy-tailed step lengths match the human-mobility
// scaling law of Song et al. [30] that also motivates the fat-tailed user
// density of the evaluation.
package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/uav-coverage/uavnet/internal/geom"
)

// Model advances a population of ground users by one time step.
type Model interface {
	// Step advances every user by dt seconds, writing updated positions in
	// place. Implementations keep per-user state and must be used with a
	// population of the size they were created for.
	Step(positions []geom.Point2, dt float64) error
}

// RandomWaypoint implements the random-waypoint model: each user walks at
// its own constant speed toward a private target; on arrival it draws a new
// uniform target (no pause time).
type RandomWaypoint struct {
	grid    geom.Grid
	rng     *rand.Rand
	targets []geom.Point2
	speeds  []float64
}

// NewRandomWaypoint creates the model for n users with speeds drawn
// uniformly from [minSpeed, maxSpeed] m/s.
func NewRandomWaypoint(grid geom.Grid, n int, minSpeed, maxSpeed float64, seed int64) (*RandomWaypoint, error) {
	if err := grid.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("mobility: negative user count %d", n)
	}
	if minSpeed < 0 || maxSpeed < minSpeed {
		return nil, fmt.Errorf("mobility: invalid speed interval [%g, %g]", minSpeed, maxSpeed)
	}
	r := rand.New(rand.NewSource(seed))
	m := &RandomWaypoint{
		grid:    grid,
		rng:     r,
		targets: make([]geom.Point2, n),
		speeds:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.targets[i] = m.randomPoint()
		m.speeds[i] = minSpeed + r.Float64()*(maxSpeed-minSpeed)
	}
	return m, nil
}

func (m *RandomWaypoint) randomPoint() geom.Point2 {
	return geom.Point2{X: m.rng.Float64() * m.grid.Length, Y: m.rng.Float64() * m.grid.Width}
}

// Step implements Model.
func (m *RandomWaypoint) Step(positions []geom.Point2, dt float64) error {
	if len(positions) != len(m.targets) {
		return fmt.Errorf("mobility: %d positions for a %d-user model", len(positions), len(m.targets))
	}
	if dt <= 0 {
		return fmt.Errorf("mobility: non-positive step %g", dt)
	}
	for i := range positions {
		remaining := m.speeds[i] * dt
		for remaining > 0 {
			d := geom.Dist2(positions[i], m.targets[i])
			if d <= remaining {
				positions[i] = m.targets[i]
				remaining -= d
				m.targets[i] = m.randomPoint()
				if d == 0 {
					break // zero-length leg; avoid spinning
				}
				continue
			}
			frac := remaining / d
			positions[i] = geom.Point2{
				X: positions[i].X + (m.targets[i].X-positions[i].X)*frac,
				Y: positions[i].Y + (m.targets[i].Y-positions[i].Y)*frac,
			}
			remaining = 0
		}
	}
	return nil
}

// LevyFlight implements a truncated Lévy flight: at each step a user either
// rests or jumps in a uniform direction with a Pareto-tailed jump length,
// clamped to the area. Heavy-tailed jumps reproduce the occasional long
// relocations of real human mobility.
type LevyFlight struct {
	grid geom.Grid
	rng  *rand.Rand
	// Alpha is the Pareto tail exponent (typical 1.6).
	alpha float64
	// MinJump and MaxJump truncate the jump length distribution, meters.
	minJump, maxJump float64
	// MoveProb is the probability a user moves at all in a step.
	moveProb float64
}

// NewLevyFlight creates a truncated Lévy flight model. Alpha must be
// positive; jumps are drawn from [minJump, maxJump].
func NewLevyFlight(grid geom.Grid, alpha, minJump, maxJump, moveProb float64, seed int64) (*LevyFlight, error) {
	if err := grid.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: %w", err)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("mobility: alpha %g must be positive", alpha)
	}
	if minJump <= 0 || maxJump < minJump {
		return nil, fmt.Errorf("mobility: invalid jump interval [%g, %g]", minJump, maxJump)
	}
	if moveProb < 0 || moveProb > 1 {
		return nil, fmt.Errorf("mobility: move probability %g outside [0,1]", moveProb)
	}
	return &LevyFlight{
		grid:     grid,
		rng:      rand.New(rand.NewSource(seed)),
		alpha:    alpha,
		minJump:  minJump,
		maxJump:  maxJump,
		moveProb: moveProb,
	}, nil
}

// jumpLength samples a truncated Pareto length via inverse transform.
func (m *LevyFlight) jumpLength() float64 {
	u := m.rng.Float64()
	a := m.alpha
	lo, hi := math.Pow(m.minJump, -a), math.Pow(m.maxJump, -a)
	return math.Pow(lo-u*(lo-hi), -1/a)
}

// Step implements Model. dt scales nothing here — each call is one
// discrete flight epoch — but must still be positive for interface
// consistency.
func (m *LevyFlight) Step(positions []geom.Point2, dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("mobility: non-positive step %g", dt)
	}
	for i := range positions {
		if m.rng.Float64() >= m.moveProb {
			continue
		}
		theta := m.rng.Float64() * 2 * math.Pi
		l := m.jumpLength()
		positions[i] = m.grid.Clamp(geom.Point2{
			X: positions[i].X + l*math.Cos(theta),
			Y: positions[i].Y + l*math.Sin(theta),
		})
	}
	return nil
}

// Displacement returns the mean distance between two equal-length position
// snapshots, a cheap drift measure used to decide when to re-deploy.
func Displacement(a, b []geom.Point2) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("mobility: snapshots of different sizes %d and %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range a {
		sum += geom.Dist2(a[i], b[i])
	}
	return sum / float64(len(a)), nil
}
