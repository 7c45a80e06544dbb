// Package core implements the paper's primary contribution: the maximum
// connected coverage problem for heterogeneous UAV networks (Section II-C)
// and its O(sqrt(s/K))-approximation algorithm (Section III, Algorithm 2),
// together with Algorithm 1 (the L_max / p*_i budget computation) and the
// relay-connector construction of Lemma 2.
package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/graph"
	"github.com/uav-coverage/uavnet/internal/match"
)

// User is one ground user to be served (Section II-A).
type User struct {
	// Pos is the user's ground position inside the disaster area.
	Pos geom.Point2
	// MinRateBps is the user's minimum data-rate requirement r_i^min,
	// e.g. 2000 (2 kbps).
	MinRateBps float64
}

// UAV is one heterogeneous UAV with its mounted base station (Section II-A).
type UAV struct {
	// Name is an optional human-readable label, e.g. "M600-1".
	Name string
	// Capacity is the service capacity C_k: the maximum number of users the
	// UAV can serve simultaneously.
	Capacity int
	// Tx is the base station's radio front-end (transmission power P_t^k and
	// antenna gain g_t^k).
	Tx channel.Transmitter
	// UserRange optionally caps the UAV-to-user communication range R_user^k
	// in meters. Zero means "no explicit cap": eligibility is then governed
	// solely by the per-user data-rate requirement through the channel model.
	UserRange float64
}

// Scenario is one full problem instance of the maximum connected coverage
// problem (Section II-C).
type Scenario struct {
	// Grid is the disaster area and its hovering-plane discretization.
	Grid geom.Grid
	// Users are the n ground users.
	Users []User
	// UAVs are the K heterogeneous UAVs.
	UAVs []UAV
	// UAVRange is the UAV-to-UAV communication range R_uav in meters; two
	// hovering locations are linked iff their distance is at most UAVRange.
	UAVRange float64
	// Channel holds the shared radio parameters.
	Channel channel.Params
}

// Validate reports whether the scenario is structurally usable.
func (sc *Scenario) Validate() error {
	if sc == nil {
		return fmt.Errorf("core: nil scenario")
	}
	if err := sc.Grid.Validate(); err != nil {
		return fmt.Errorf("core: invalid grid: %w", err)
	}
	if err := sc.Channel.Validate(); err != nil {
		return fmt.Errorf("core: invalid channel: %w", err)
	}
	if len(sc.UAVs) == 0 {
		return fmt.Errorf("core: scenario has no UAVs")
	}
	// Non-finite floats are refused outright: a NaN compares false with
	// everything, so it would pass the sign checks and then silently drop
	// every edge or user it touches (and an infinite UAVRange links every
	// pair). JSON cannot carry these values, so no saved scenario has them.
	if !finite(sc.UAVRange) || sc.UAVRange <= 0 {
		return fmt.Errorf("core: UAV-to-UAV range %g must be positive and finite", sc.UAVRange)
	}
	for k, u := range sc.UAVs {
		switch {
		case u.Capacity < 0:
			return fmt.Errorf("core: UAV %d has negative capacity %d", k, u.Capacity)
		case !finite(u.UserRange):
			return fmt.Errorf("core: UAV %d has non-finite user range %g", k, u.UserRange)
		case u.UserRange < 0:
			return fmt.Errorf("core: UAV %d has negative user range %g", k, u.UserRange)
		case !finite(u.Tx.PowerDBm) || !finite(u.Tx.AntennaGainDBi):
			return fmt.Errorf("core: UAV %d has non-finite transmitter %+v", k, u.Tx)
		}
	}
	for i, u := range sc.Users {
		switch {
		case !finite(u.Pos.X) || !finite(u.Pos.Y):
			return fmt.Errorf("core: user %d has non-finite position %+v", i, u.Pos)
		case !finite(u.MinRateBps):
			return fmt.Errorf("core: user %d has non-finite rate requirement %g", i, u.MinRateBps)
		case u.MinRateBps < 0:
			return fmt.Errorf("core: user %d has negative rate requirement %g", i, u.MinRateBps)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Fingerprint returns a 64-bit FNV-1a hash over every field that shapes the
// optimization problem: grid, ranges, channel parameters, users, and fleet.
// Checkpoints embed it so a resumed run provably targets the same scenario;
// it is a content hash, not a cryptographic commitment.
func (sc *Scenario) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%v|", sc.Grid, sc.UAVRange, sc.Channel)
	for _, u := range sc.Users {
		fmt.Fprintf(h, "u%v,%v,%v;", u.Pos.X, u.Pos.Y, u.MinRateBps)
	}
	for _, u := range sc.UAVs {
		fmt.Fprintf(h, "k%s,%d,%v,%v;", u.Name, u.Capacity, u.Tx, u.UserRange)
	}
	return h.Sum64()
}

// K returns the number of UAVs.
func (sc *Scenario) K() int { return len(sc.UAVs) }

// N returns the number of users.
func (sc *Scenario) N() int { return len(sc.Users) }

// M returns the number of candidate hovering locations.
func (sc *Scenario) M() int { return sc.Grid.NumCells() }

// classKey identifies UAVs that behave identically for eligibility purposes:
// same radio front-end and same explicit range cap. Capacity does NOT enter
// the key — capacity affects assignment, not eligibility.
type classKey struct {
	powerDBm, gainDBi, userRange float64
}

// Instance is a Scenario with every structure the algorithms need
// precomputed: the candidate-location graph, pairwise hop distances, per-UAV
// eligibility lists and the capacity-sorted UAV order. Build it once and
// share it across algorithm runs; it is read-only after construction and safe
// for concurrent use.
type Instance struct {
	Scenario *Scenario
	// Centers are the planar centers of the m candidate hovering locations.
	Centers []geom.Point2
	// LocGraph is the location graph: nodes are candidate locations, edges
	// connect pairs within UAVRange.
	LocGraph *graph.Undirected
	// Hop[a][b] is the hop distance between locations a and b in LocGraph,
	// or graph.Unreachable. Row a is Paths.DistRow(a), a view of the path
	// oracle's own distance row, so the rows must not be modified.
	Hop [][]int
	// Paths is the precomputed shortest-path oracle over LocGraph: one BFS
	// predecessor array per source, so the relay-connection step reads MST
	// edge expansions back instead of re-running a BFS per edge per subset.
	Paths *graph.PathOracle
	// ByCapacity holds UAV indices sorted by decreasing capacity (ties by
	// index), the order in which Algorithm 2 deploys them.
	ByCapacity []int
	// ClassOf maps a UAV index to its eligibility class.
	ClassOf []int
	// Eligible[class][loc] lists the demand nodes a UAV of that class can
	// serve from location loc (within range and meeting the minimum rate).
	// On a per-user instance (NewInstance) the nodes are the users
	// themselves; on an aggregated instance (NewAggregateInstance) they are
	// weighted demand cells.
	//
	// Invariant: every list is sorted ascending and duplicate-free (nodes
	// are scanned in index order at construction, each appended at most
	// once). EligMask and the matcher's popcount bound path rely on it;
	// TestEligibleSortedUniqueProperty asserts it on random instances.
	Eligible [][][]int
	// EligMask[class][loc] is Eligible[class][loc] as a node bitset, the
	// representation the greedy's dynamic gain bound popcounts against the
	// matcher's still-augmentable node set.
	EligMask [][]match.Bitset

	// Demand, Weights and EligWeight are set only on aggregated instances
	// (see aggregate.go): the demand-cell structure, the per-node demand
	// weights the matching layer serves, and the per-(class, location) total
	// eligible demand (the weighted counterpart of len(Eligible[c][j])).
	Demand     *Demand
	Weights    []int
	EligWeight [][]int
}

// NewInstance validates the scenario and precomputes the derived structures.
func NewInstance(sc *Scenario) (*Instance, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return newInstance(sc, nil)
}

// newInstance builds an instance of a validated scenario, shared by
// NewInstance and NewAggregateInstance: the location graph, hop matrix, path
// oracle, capacity order and eligibility classes, then eligibility over the
// demand nodes — the users themselves when dem is nil, dem's weighted cells
// otherwise.
func newInstance(sc *Scenario, dem *Demand) (*Instance, error) {
	in := &Instance{
		Scenario: sc,
		Centers:  sc.Grid.Centers(),
		Demand:   dem,
	}
	m := len(in.Centers)
	cols, rows := sc.Grid.Cols(), sc.Grid.Rows()

	// Location graph and hop matrix. Each cell is tested only against the
	// cells in its UAVRange window, and only those of higher index, so edges
	// are added in the (a, b) order of an all-pairs scan and every adjacency
	// list comes out the same.
	in.LocGraph = graph.New(m)
	for a, p := range in.Centers {
		c0, c1 := cellSpan(p.X-sc.UAVRange, p.X+sc.UAVRange, sc.Grid.Side, cols)
		r0, r1 := cellSpan(p.Y-sc.UAVRange, p.Y+sc.UAVRange, sc.Grid.Side, rows)
		for row := r0; row <= r1; row++ {
			for b := max(row*cols+c0, a+1); b <= row*cols+c1; b++ {
				if geom.Dist2(p, in.Centers[b]) <= sc.UAVRange {
					if err := in.LocGraph.AddEdge(a, b); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	// The path oracle's construction BFS doubles as the hop-matrix BFS:
	// each Hop row is a view of the oracle's distance row, so the matrix is
	// stored once.
	in.Paths = graph.NewPathOracle(in.LocGraph)
	in.Hop = make([][]int, m)
	for a := 0; a < m; a++ {
		in.Hop[a] = in.Paths.DistRow(a)
	}

	// Capacity-sorted order (decreasing; stable on index for determinism).
	in.ByCapacity = make([]int, sc.K())
	for k := range in.ByCapacity {
		in.ByCapacity[k] = k
	}
	sort.SliceStable(in.ByCapacity, func(i, j int) bool {
		a, b := in.ByCapacity[i], in.ByCapacity[j]
		if sc.UAVs[a].Capacity != sc.UAVs[b].Capacity {
			return sc.UAVs[a].Capacity > sc.UAVs[b].Capacity
		}
		return a < b
	})

	// Eligibility classes.
	classIdx := map[classKey]int{}
	in.ClassOf = make([]int, sc.K())
	var classes []classKey
	for k, u := range sc.UAVs {
		key := classKey{u.Tx.PowerDBm, u.Tx.AntennaGainDBi, u.UserRange}
		id, ok := classIdx[key]
		if !ok {
			id = len(classes)
			classIdx[key] = id
			classes = append(classes, key)
		}
		in.ClassOf[k] = id
	}

	if dem != nil {
		in.Weights = make([]int, len(dem.Cells))
		for i := range dem.Cells {
			in.Weights[i] = dem.Cells[i].Weight
		}
	}
	in.buildEligibility(classes)
	return in, nil
}

// demandNode returns node i's minimum rate and bounding box: a user's own
// position on a per-user instance, the members' box of a demand cell on an
// aggregated one.
func (in *Instance) demandNode(i int) (rate, minX, minY, maxX, maxY float64) {
	if in.Demand != nil {
		c := &in.Demand.Cells[i]
		return c.MinRateBps, c.MinX, c.MinY, c.MaxX, c.MaxY
	}
	u := &in.Scenario.Users[i]
	return u.MinRateBps, u.Pos.X, u.Pos.Y, u.Pos.X, u.Pos.Y
}

// buildEligibility applies the coverage rule (Section II-B) for every class:
// a UAV of the class at location j serves a demand node iff every point of
// the node's bounding box lies within d of j's center, d being the lesser of
// the class's range cap and the distance at which the channel still meets
// the node's minimum rate. For a user the box is a point and the test is
// geom.Dist2 bit for bit (fl(a−b) = −fl(b−a), and math.Hypot takes absolute
// values); for a demand cell it is conservative (see NewAggregateInstance). Each node is tested only against the cells in its
// window, and nodes are visited in index order, so every list is appended
// ascending. Coverage radii are cached per distinct rate.
func (in *Instance) buildEligibility(classes []classKey) {
	sc := in.Scenario
	side, alt := sc.Grid.Side, sc.Grid.Altitude
	cols, rows := sc.Grid.Cols(), sc.Grid.Rows()
	m, n := len(in.Centers), in.NumNodes()
	in.Eligible = make([][][]int, len(classes))
	in.EligMask = make([][]match.Bitset, len(classes))
	if in.Weights != nil {
		in.EligWeight = make([][]int, len(classes))
	}
	for c, key := range classes {
		tx := channel.Transmitter{PowerDBm: key.powerDBm, AntennaGainDBi: key.gainDBi}
		distByRate := map[float64]float64{}
		perLoc := make([][]int, m)
		for i := 0; i < n; i++ {
			rate, minX, minY, maxX, maxY := in.demandNode(i)
			d, ok := distByRate[rate]
			if !ok {
				d = sc.Channel.CoverageRadius(tx, alt, rate)
				if key.userRange > 0 && key.userRange < d {
					d = key.userRange
				}
				distByRate[rate] = d
			}
			// A zero radius means the channel cannot meet the rate even
			// directly overhead: never eligible.
			if d <= 0 {
				continue
			}
			c0, c1 := cellSpan(maxX-d, minX+d, side, cols)
			r0, r1 := cellSpan(maxY-d, minY+d, side, rows)
			for row := r0; row <= r1; row++ {
				// The distance from a center to the box's farthest corner;
				// every center of a row has the same y.
				cy := in.Centers[row*cols].Y
				dy := max(maxY-cy, cy-minY)
				for j := row*cols + c0; j <= row*cols+c1; j++ {
					cx := in.Centers[j].X
					if math.Hypot(max(maxX-cx, cx-minX), dy) <= d {
						perLoc[j] = append(perLoc[j], i)
					}
				}
			}
		}
		masks := make([]match.Bitset, m)
		for j, el := range perLoc {
			masks[j] = match.BitsetFromSorted(n, el)
		}
		in.Eligible[c] = perLoc
		in.EligMask[c] = masks
		if in.Weights != nil {
			total := make([]int, m)
			for j, el := range perLoc {
				for _, i := range el {
					total[j] += in.Weights[i]
				}
			}
			in.EligWeight[c] = total
		}
	}
}

// cellSpan returns the cells first..last along one axis of the grid (n
// cells of the given side, the center of cell i at (i+0.5)*side) whose
// center may lie in [lo, hi]. Callers pass an interval widened by a
// distance d: [x−d, x+d] around a point, and [maxX−d, minX+d] for a box
// [minX, maxX], whose farthest corner is within d of a center cx only if
// both ends are. The span is a superset of the cells that a
// farthest-corner test math.Hypot(max(maxX−cx, cx−minX), …) <= d accepts
// (geom.Dist2 for a point), despite float rounding: Hypot never falls below
// either argument, so an accepted center has fl(maxX−cx) <= d and
// fl(cx−minX) <= d, and lies in [lo, hi] up to one rounding of each
// subtraction. The bounds lo/side − 0.5 and hi/side − 0.5 add a few
// roundings of relative size 2^-53, and floor and ceil widen them outward
// to whole cells, so a bound misses an accepted cell only if its
// accumulated error reaches a whole cell, which takes coordinates or d near
// 2^50 cell sides. A box wider than 2d has lo > hi: no center is within d
// of both ends, and the span is empty or holds only cells the outward
// rounding adds. Both bounds are clamped to the grid while still floats:
// converting a float outside the int range is implementation-dependent in
// Go. An empty span, also for a NaN bound, comes back as last < first.
func cellSpan(lo, hi, side float64, n int) (first, last int) {
	l := math.Max(math.Floor(lo/side-0.5), 0)
	h := math.Min(math.Ceil(hi/side-0.5), float64(n-1))
	if !(l <= h) {
		return 0, -1
	}
	return int(l), int(h)
}

// EligibleUsers returns the demand nodes UAV k can serve from location loc:
// users on a per-user instance, demand cells on an aggregated one.
func (in *Instance) EligibleUsers(k, loc int) []int {
	return in.Eligible[in.ClassOf[k]][loc]
}

// NumNodes returns the number of demand nodes the matching layer works on:
// the demand-cell count for an aggregated instance, the user count otherwise.
func (in *Instance) NumNodes() int {
	if in.Demand != nil {
		return len(in.Demand.Cells)
	}
	return in.Scenario.N()
}

// Aggregated reports whether the instance carries aggregated demand cells
// instead of individual users.
func (in *Instance) Aggregated() bool { return in.Demand != nil }

// weightOf returns the demand of node u (1 on per-user instances).
func (in *Instance) weightOf(u int) int {
	if in.Weights == nil {
		return 1
	}
	return in.Weights[u]
}

// eligTotal returns the total demand eligible for the class at loc — the
// weighted counterpart of len(Eligible[class][loc]).
func (in *Instance) eligTotal(class, loc int) int {
	if in.EligWeight != nil {
		return in.EligWeight[class][loc]
	}
	return len(in.Eligible[class][loc])
}

// Fingerprint identifies the optimization problem the instance encodes. For
// a per-user instance it is the scenario fingerprint; an aggregated instance
// additionally binds the demand grid, so checkpoints taken on one cell size
// refuse to resume under another (or under the per-user representation) —
// the enumeration prefix would otherwise silently score different matchings.
func (in *Instance) Fingerprint() uint64 {
	fp := in.Scenario.Fingerprint()
	if in.Demand == nil {
		return fp
	}
	return aggFingerprint(fp, in.Demand)
}

// TotalCapacity returns the sum of all UAV capacities.
func (in *Instance) TotalCapacity() int {
	total := 0
	for _, u := range in.Scenario.UAVs {
		total += u.Capacity
	}
	return total
}

// CoverageUpperBound returns a trivial upper bound on the number of users
// any deployment can serve: min(n, total capacity).
func (in *Instance) CoverageUpperBound() int {
	n := in.Scenario.N()
	if tc := in.TotalCapacity(); tc < n {
		return tc
	}
	return n
}
