package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/graph"
	"github.com/uav-coverage/uavnet/internal/match"
)

// allPairsLocGraph is the location graph as an all-pairs scan builds it:
// every pair a < b tested in ascending (a, b) order. NewInstance's windowed
// scan must give the same adjacency lists.
func allPairsLocGraph(centers []geom.Point2, uavRange float64) *graph.Undirected {
	g := graph.New(len(centers))
	for a := range centers {
		for b := a + 1; b < len(centers); b++ {
			if geom.Dist2(centers[a], centers[b]) <= uavRange {
				if err := g.AddEdge(a, b); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// allPairsEligible is the eligibility scan over every (location, user) pair
// for each class of in, with each class's per-user serving distance
// computed as NewInstance documents it.
func allPairsEligible(in *Instance) ([][][]int, [][]match.Bitset) {
	sc := in.Scenario
	n := len(sc.Users)
	var elig [][][]int
	var masks [][]match.Bitset
	for k, u := range sc.UAVs {
		if in.ClassOf[k] != len(elig) {
			continue // not the class's first UAV
		}
		maxDist := make([]float64, n)
		for i, user := range sc.Users {
			maxDist[i] = sc.Channel.CoverageRadius(u.Tx, sc.Grid.Altitude, user.MinRateBps)
			if u.UserRange > 0 && u.UserRange < maxDist[i] {
				maxDist[i] = u.UserRange
			}
		}
		perLoc := make([][]int, len(in.Centers))
		perMask := make([]match.Bitset, len(in.Centers))
		for j, c := range in.Centers {
			for i, user := range sc.Users {
				if maxDist[i] > 0 && geom.Dist2(user.Pos, c) <= maxDist[i] {
					perLoc[j] = append(perLoc[j], i)
				}
			}
			perMask[j] = match.BitsetFromSorted(n, perLoc[j])
		}
		elig = append(elig, perLoc)
		masks = append(masks, perMask)
	}
	return elig, masks
}

// allPairsAggEligible is the aggregated eligibility scan over every
// (location, demand cell) pair for each class of the aggregated instance in:
// a cell is eligible when the farthest corner of its members' bounding box
// is within the class's serving distance for the cell's rate. It also
// returns each location's summed eligible weight.
func allPairsAggEligible(in *Instance) ([][][]int, [][]match.Bitset, [][]int) {
	sc := in.Scenario
	cells := in.Demand.Cells
	var elig [][][]int
	var masks [][]match.Bitset
	var weights [][]int
	for k, u := range sc.UAVs {
		if in.ClassOf[k] != len(elig) {
			continue // not the class's first UAV
		}
		maxDist := make([]float64, len(cells))
		for i := range cells {
			maxDist[i] = sc.Channel.CoverageRadius(u.Tx, sc.Grid.Altitude, cells[i].MinRateBps)
			if u.UserRange > 0 && u.UserRange < maxDist[i] {
				maxDist[i] = u.UserRange
			}
		}
		perLoc := make([][]int, len(in.Centers))
		perMask := make([]match.Bitset, len(in.Centers))
		perWeight := make([]int, len(in.Centers))
		for j, p := range in.Centers {
			for i := range cells {
				if maxDist[i] > 0 && farthestCornerDist(p, &cells[i]) <= maxDist[i] {
					perLoc[j] = append(perLoc[j], i)
					perWeight[j] += cells[i].Weight
				}
			}
			perMask[j] = match.BitsetFromSorted(len(cells), perLoc[j])
		}
		elig = append(elig, perLoc)
		masks = append(masks, perMask)
		weights = append(weights, perWeight)
	}
	return elig, masks, weights
}

// farthestCornerDist returns the largest distance from p to the cell's
// member bounding box: the distance to its farthest corner.
func farthestCornerDist(p geom.Point2, c *DemandCell) float64 {
	dx := math.Max(c.MaxX-p.X, p.X-c.MinX)
	dy := math.Max(c.MaxY-p.Y, p.Y-c.MinY)
	return math.Hypot(dx, dy)
}

// listBFS returns the BFS tree from src over g's adjacency lists, each list
// walked in order: the predecessor of every node (-1 at src, -2 unreached)
// and its hop distance.
func listBFS(g *graph.Undirected, src int) (prev, dist []int) {
	prev = make([]int, g.N())
	dist = make([]int, g.N())
	for v := range prev {
		prev[v], dist[v] = -2, graph.Unreachable
	}
	prev[src], dist[src] = -1, 0
	for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, v := range g.Neighbors(u) {
			if prev[v] == -2 {
				prev[v], dist[v] = u, dist[u]+1
				queue = append(queue, v)
			}
		}
	}
	return prev, dist
}

// checkInstanceGeometry builds sc and holds every structure NewInstance
// derives from the geometry to the all-pairs references: the centers, the
// location graph's adjacency lists, Hop and the path oracle (to an
// adjacency-list BFS from every source: each distance, and each path, whose
// last step is the destination's predecessor), Eligible and EligMask. It
// also builds the aggregated instance at the grid side and, where it divides
// the area, at twice the grid side, so that some demand cells have real
// bounding boxes, and holds its Eligible, EligMask and EligWeight to the
// all-pairs farthest-corner scan.
func checkInstanceGeometry(t *testing.T, sc *Scenario) {
	t.Helper()
	in, err := NewInstance(sc)
	if err != nil {
		t.Fatalf("grid %+v, range %g: %v", sc.Grid, sc.UAVRange, err)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("grid %+v, range %g, %d users: "+format, append([]any{sc.Grid, sc.UAVRange, len(sc.Users)}, args...)...)
	}
	if !reflect.DeepEqual(in.Centers, sc.Grid.Centers()) {
		fail("centers differ")
	}
	ref := allPairsLocGraph(in.Centers, sc.UAVRange)
	m := len(in.Centers)
	for a := 0; a < m; a++ {
		if !slices.Equal(in.LocGraph.Neighbors(a), ref.Neighbors(a)) {
			fail("Neighbors(%d) = %v, all-pairs %v", a, in.LocGraph.Neighbors(a), ref.Neighbors(a))
		}
	}
	var path []int
	for a := 0; a < m; a++ {
		prev, dist := listBFS(ref, a)
		if !slices.Equal(in.Hop[a], dist) {
			fail("Hop[%d] = %v, list BFS %v", a, in.Hop[a], dist)
		}
		if !slices.Equal(in.Paths.DistRow(a), dist) {
			fail("Paths.DistRow(%d) = %v, list BFS %v", a, in.Paths.DistRow(a), dist)
		}
		for b := 0; b < m; b++ {
			path = in.Paths.PathInto(a, b, path)
			switch {
			case prev[b] == -2 && path != nil:
				fail("PathInto(%d,%d) = %v across components", a, b, path)
			case prev[b] >= 0 && (len(path) != dist[b]+1 || path[len(path)-2] != prev[b]):
				fail("PathInto(%d,%d) = %v, list BFS distance %d via %d", a, b, path, dist[b], prev[b])
			}
		}
	}
	elig, masks := allPairsEligible(in)
	if !reflect.DeepEqual(in.Eligible, elig) {
		fail("Eligible differs from the all-pairs scan")
	}
	if !reflect.DeepEqual(in.EligMask, masks) {
		fail("EligMask differs from the all-pairs scan")
	}

	for _, side := range []float64{sc.Grid.Side, 2 * sc.Grid.Side} {
		if side != sc.Grid.Side && (sc.Grid.Cols()%2 != 0 || sc.Grid.Rows()%2 != 0) {
			continue // twice the side does not divide the area
		}
		agg, err := NewAggregateInstance(sc, AggOptions{CellSide: side})
		if err != nil {
			fail("aggregated at side %g: %v", side, err)
		}
		elig, masks, weights := allPairsAggEligible(agg)
		if !reflect.DeepEqual(agg.Eligible, elig) {
			fail("aggregated at side %g: Eligible differs from the all-pairs scan", side)
		}
		if !reflect.DeepEqual(agg.EligMask, masks) {
			fail("aggregated at side %g: EligMask differs from the all-pairs scan", side)
		}
		if !reflect.DeepEqual(agg.EligWeight, weights) {
			fail("aggregated at side %g: EligWeight differs from the all-pairs scan", side)
		}
	}
}

// decodeGeometryCase turns fuzz bytes into a scenario that probes the range
// windows: grids of 1-12 by 1-12 cells or strips of up to 40 by 3, with
// sides that are and are not exact in binary; UAV ranges at exact multiples
// of the side, at the exact distance of an off-axis cell pair, arbitrary, or
// spanning the whole grid; users at cell centers, on cell edges, inside the
// area and outside it; rates from zero (the channel's largest radius) to
// unservable; and 1-5 UAVs over several eligibility classes, with user
// ranges of 0 (uncapped) and multiples of the side. Exhausted bytes read as
// zero.
//
// With side 0.3, a window cut exactly at (x±r)/side − 0.5, without widening
// to whole cells, misses centers that the distance test accepts after
// rounding; these cases catch it.
func decodeGeometryCase(data []byte) *Scenario {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	cols, rows := 1+next(12), 1+next(12)
	if next(2) == 0 {
		cols, rows = 1+next(40), 1+next(3) // a strip, long enough to reach far cells
	}
	side := []float64{100, 250, 500, 0.3, 1}[next(5)]
	sc := &Scenario{
		Grid: geom.Grid{
			Length:   float64(cols) * side,
			Width:    float64(rows) * side,
			Side:     side,
			Altitude: 300,
		},
		Channel: channel.DefaultParams(),
	}
	switch next(4) {
	case 0:
		sc.UAVRange = float64(1+next(4)) * side
	case 1:
		sc.UAVRange = math.Hypot(float64(1+next(3))*side, float64(next(3))*side)
	case 2:
		sc.UAVRange = side * (1 + float64(next(256))) / 40
	default:
		sc.UAVRange = 1e6 * side
	}
	coord := func(cells int) float64 {
		extent := float64(cells) * side
		switch next(5) {
		case 0:
			return (float64(next(cells)) + 0.5) * side
		case 1:
			return float64(next(cells+1)) * side
		case 2:
			return extent * float64(next(256)) / 255
		case 3:
			return -side * float64(next(256)) / 64
		default:
			return extent + side*float64(next(256))/64
		}
	}
	for i := next(41); i > 0; i-- {
		sc.Users = append(sc.Users, User{
			Pos:        geom.Point2{X: coord(cols), Y: coord(rows)},
			MinRateBps: []float64{0, 2000, 1e5, 1e12}[next(4)],
		})
	}
	for k := 1 + next(5); k > 0; k-- {
		sc.UAVs = append(sc.UAVs, UAV{
			Capacity:  1 + next(5),
			Tx:        channel.Transmitter{PowerDBm: []float64{30, 24, 10}[next(3)], AntennaGainDBi: 3},
			UserRange: []float64{0, side, 2 * side, 2.5 * side, 700}[next(5)],
		})
	}
	return sc
}

// TestInstanceGeometryMatchesAllPairs runs checkInstanceGeometry on random
// decodeGeometryCase scenarios.
func TestInstanceGeometryMatchesAllPairs(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(47))
	data := make([]byte, 256)
	trials := 300
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		r.Read(data)
		checkInstanceGeometry(t, decodeGeometryCase(data))
	}
}

// TestInstanceGeometryM900 runs checkInstanceGeometry once at the
// portfolio-m900 benchmark's shape: a 3 km square on a 100 m grid with a
// 600 m UAV range (average degree about 94) and 600 users.
func TestInstanceGeometryM900(t *testing.T) {
	if testing.Short() {
		t.Skip("m = 900 all-pairs reference")
	}
	t.Parallel()
	r := rand.New(rand.NewSource(1))
	sc := &Scenario{
		Grid:     geom.Grid{Length: 3000, Width: 3000, Side: 100, Altitude: 300},
		UAVRange: 600,
		Channel:  channel.DefaultParams(),
	}
	for i := 0; i < 600; i++ {
		sc.Users = append(sc.Users, User{
			Pos:        geom.Point2{X: r.Float64() * 3000, Y: r.Float64() * 3000},
			MinRateBps: 2000,
		})
	}
	for k := 0; k < 10; k++ {
		sc.UAVs = append(sc.UAVs, UAV{
			Capacity:  20 + r.Intn(101),
			Tx:        channel.Transmitter{PowerDBm: []float64{30, 24}[k%2], AntennaGainDBi: 3},
			UserRange: []float64{0, 500}[k%2],
		})
	}
	checkInstanceGeometry(t, sc)
}

// TestInstanceGeometryBoxEdges runs checkInstanceGeometry on two users
// sharing a row, at every pair of half-cell offsets a <= b along it, on a
// 0.3 m grid. Their demand cell's box then has an end exactly one user range (1,
// 2 or 2.5 cells) from some centers, and on this grid the window bounds
// round inward there, so a box window cut exactly at the bounds, without
// widening to whole cells, misses cells the farthest-corner test accepts.
func TestInstanceGeometryBoxEdges(t *testing.T) {
	t.Parallel()
	const side = 0.3
	for _, userRange := range []float64{side, 2 * side, 2.5 * side} {
		for a := 0; a <= 8; a++ {
			for b := a; b <= 8; b++ {
				for row := 0; row <= 4; row++ {
					y := float64(row) * side / 2
					checkInstanceGeometry(t, &Scenario{
						Grid: geom.Grid{Length: 4 * side, Width: 2 * side, Side: side, Altitude: 300},
						Users: []User{
							{Pos: geom.Point2{X: float64(a) * side / 2, Y: y}},
							{Pos: geom.Point2{X: float64(b) * side / 2, Y: y}},
						},
						UAVs: []UAV{{
							Capacity:  1,
							Tx:        channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3},
							UserRange: userRange,
						}},
						UAVRange: side,
						Channel:  channel.DefaultParams(),
					})
				}
			}
		}
	}
}

// FuzzInstanceGeometry is TestInstanceGeometryMatchesAllPairs over
// fuzzer-chosen scenarios, per-user and aggregated.
func FuzzInstanceGeometry(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{11, 3, 3, 0, 2, 40, 1, 1, 1, 2, 4, 7, 3, 0, 0, 3, 2, 1, 0, 1})
	f.Add([]byte{5, 9, 0, 1, 2, 1, 30, 0, 3, 0, 1, 2, 2, 3, 5, 4, 9, 2, 4, 2, 1, 0, 3})
	f.Add([]byte("users on the edges of a non-square grid, range a multiple of the side"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkInstanceGeometry(t, decodeGeometryCase(data))
	})
}
