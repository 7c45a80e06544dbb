// Package workload generates synthetic disaster-area scenarios matching the
// paper's evaluation setup (Section IV-A): user positions whose density is
// fat-tailed ("many users are located at a small portion of places while a
// few users are sparsely located at many other places", following the human
// mobility scaling of Song et al. [30]), plus heterogeneous UAV fleets with
// capacities drawn uniformly from [C_min, C_max].
//
// All generators are deterministic functions of their seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/uav-coverage/uavnet/internal/geom"
)

// Distribution selects a user-placement model.
type Distribution int

const (
	// FatTailed places users in clusters whose sizes follow a truncated
	// Zipf law: a few dense hotspots plus a sparse background. This is the
	// paper's evaluation distribution.
	FatTailed Distribution = iota
	// Uniform scatters users independently and uniformly over the area.
	Uniform
	// SingleHotspot concentrates most users around one Gaussian hotspot,
	// a stress case for capacity-aware placement.
	SingleHotspot
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case FatTailed:
		return "fat-tailed"
	case Uniform:
		return "uniform"
	case SingleHotspot:
		return "single-hotspot"
	default:
		return fmt.Sprintf("distribution(%d)", int(d))
	}
}

// UserOptions tune the generated positions.
type UserOptions struct {
	// SnapSide, when non-zero, snaps every generated position to the center
	// of its cell on a square grid with this side, which must be positive
	// and divide the area like a hovering-grid side; any other non-zero
	// value is refused before a position is drawn. Snapped scenarios make
	// every demand cell's members co-located, the homogeneity condition
	// under which core.NewAggregateInstance is exact — the differential
	// suite and the million-user benchmarks generate their workloads this
	// way. Applies to every distribution.
	SnapSide float64
}

// UsersWithOptions generates n user positions inside the grid area under
// the given distribution, options and seed.
func UsersWithOptions(grid geom.Grid, n int, dist Distribution, seed int64, opts UserOptions) ([]geom.Point2, error) {
	return UsersRand(rand.New(rand.NewSource(seed)), grid, n, dist, opts)
}

// UsersRand is UsersWithOptions with an injected random source: callers that
// interleave several generators (e.g. the differential test harness) derive
// every draw from one seed, so a failure reproduces from that seed alone.
func UsersRand(r *rand.Rand, grid geom.Grid, n int, dist Distribution, opts UserOptions) ([]geom.Point2, error) {
	if r == nil {
		return nil, fmt.Errorf("workload: nil random source")
	}
	if err := grid.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("workload: negative user count %d", n)
	}
	snap := grid
	snap.Side = opts.SnapSide
	if opts.SnapSide != 0 {
		if err := snap.Validate(); err != nil {
			return nil, fmt.Errorf("workload: invalid snap grid: %w", err)
		}
	}
	var out []geom.Point2
	switch dist {
	case Uniform:
		out = uniformUsers(r, grid, n)
	case SingleHotspot:
		out = hotspotUsers(r, grid, n)
	case FatTailed:
		out = fatTailedUsers(r, grid, n)
	default:
		return nil, fmt.Errorf("workload: unknown distribution %v", dist)
	}
	if opts.SnapSide != 0 {
		// Binning uses the same CellOf arithmetic the aggregation layer
		// uses, so a snapped position and its demand cell never disagree.
		for i, p := range out {
			col, row := snap.CellAt(snap.CellOf(p))
			out[i] = snap.Center(col, row)
		}
	}
	return out, nil
}

func uniformUsers(r *rand.Rand, grid geom.Grid, n int) []geom.Point2 {
	out := make([]geom.Point2, n)
	for i := range out {
		out[i] = geom.Point2{X: r.Float64() * grid.Length, Y: r.Float64() * grid.Width}
	}
	return out
}

func hotspotUsers(r *rand.Rand, grid geom.Grid, n int) []geom.Point2 {
	center := geom.Point2{
		X: grid.Length * (0.3 + 0.4*r.Float64()),
		Y: grid.Width * (0.3 + 0.4*r.Float64()),
	}
	sigma := 0.1 * math.Min(grid.Length, grid.Width)
	out := make([]geom.Point2, n)
	for i := range out {
		if r.Float64() < 0.1 {
			out[i] = geom.Point2{X: r.Float64() * grid.Length, Y: r.Float64() * grid.Width}
			continue
		}
		out[i] = grid.Clamp(geom.Point2{
			X: center.X + r.NormFloat64()*sigma,
			Y: center.Y + r.NormFloat64()*sigma,
		})
	}
	return out
}

// The fat-tailed generator's shape, matching the paper's qualitative
// description: cluster masses follow a Zipf law with this exponent, and
// this fraction of the users is scattered uniformly outside the clusters.
const (
	zipfExponent   = 1.2
	backgroundFrac = 0.1
)

// fatTailedUsers draws cluster masses from a truncated Zipf law so that the
// largest clusters hold most users, then scatters a background fraction
// uniformly. There are max(3, n/250) clusters, and users spread around a
// cluster center with a standard deviation of 5% of the shorter area side.
func fatTailedUsers(r *rand.Rand, grid geom.Grid, n int) []geom.Point2 {
	clusters := max(3, n/250)
	sigma := 0.05 * math.Min(grid.Length, grid.Width)
	background := int(math.Round(float64(n) * backgroundFrac))
	clustered := n - background

	// Cluster masses: weight of cluster c is 1/(c+1)^alpha, normalized.
	weights := make([]float64, clusters)
	var sum float64
	for c := range weights {
		weights[c] = 1 / math.Pow(float64(c+1), zipfExponent)
		sum += weights[c]
	}
	counts := make([]int, clusters)
	assigned := 0
	for c := range counts {
		counts[c] = int(float64(clustered) * weights[c] / sum)
		assigned += counts[c]
	}
	// Distribute rounding leftovers to the heaviest clusters.
	for i := 0; assigned < clustered; i++ {
		counts[i%clusters]++
		assigned++
	}

	centers := make([]geom.Point2, clusters)
	for c := range centers {
		centers[c] = geom.Point2{X: r.Float64() * grid.Length, Y: r.Float64() * grid.Width}
	}

	out := make([]geom.Point2, 0, n)
	for c, count := range counts {
		for i := 0; i < count; i++ {
			out = append(out, grid.Clamp(geom.Point2{
				X: centers[c].X + r.NormFloat64()*sigma,
				Y: centers[c].Y + r.NormFloat64()*sigma,
			}))
		}
	}
	for i := 0; i < background; i++ {
		out = append(out, geom.Point2{X: r.Float64() * grid.Length, Y: r.Float64() * grid.Width})
	}
	return out
}

// Capacities draws k UAV service capacities uniformly from [cmin, cmax],
// the paper's heterogeneous-fleet model (C_min = 50, C_max = 300 in
// Section IV-A).
func Capacities(k, cmin, cmax int, seed int64) ([]int, error) {
	return CapacitiesRand(rand.New(rand.NewSource(seed)), k, cmin, cmax)
}

// CapacitiesRand is Capacities with an injected random source; see UsersRand.
func CapacitiesRand(r *rand.Rand, k, cmin, cmax int) ([]int, error) {
	if r == nil {
		return nil, fmt.Errorf("workload: nil random source")
	}
	if k < 0 {
		return nil, fmt.Errorf("workload: negative UAV count %d", k)
	}
	if cmin < 0 || cmax < cmin {
		return nil, fmt.Errorf("workload: invalid capacity interval [%d, %d]", cmin, cmax)
	}
	out := make([]int, k)
	for i := range out {
		out[i] = cmin + r.Intn(cmax-cmin+1)
	}
	return out, nil
}
