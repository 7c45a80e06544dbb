package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"github.com/uav-coverage/uavnet/internal/assign"
	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/match"
)

// AggOptions configure demand aggregation (NewAggregateInstance).
type AggOptions struct {
	// CellSide is the demand-grid cell side in meters. The area must divide
	// into it exactly (the same rule geom.Grid.Validate enforces for the
	// hovering grid). Zero reuses the scenario grid's side. Smaller cells
	// mean more demand nodes and a tighter approximation of the per-user
	// problem; CellSide equal to the hovering-grid side is usually a good
	// starting point.
	CellSide float64
}

// DemandCell is one weighted demand node: the users of one demand-grid cell
// sharing one minimum-rate class, served interchangeably by the matching
// layer and expanded back to individuals afterwards.
type DemandCell struct {
	// Cell is the demand-grid cell index (geom.Grid.CellOf on Demand.Grid).
	Cell int
	// MinRateBps is the shared minimum-rate requirement of the members.
	MinRateBps float64
	// Weight is the demand: the number of users binned into this node.
	Weight int
	// Users lists the member user indices, ascending.
	Users []int32
	// MinX, MinY, MaxX, MaxY is the members' bounding box. Eligibility uses
	// its farthest corner, so a cell is eligible only when every possible
	// member position inside the box is; co-located members collapse the box
	// to a point and make the criterion exact.
	MinX, MinY, MaxX, MaxY float64
}

// Demand is the aggregated form of a scenario's users: every user binned by
// (demand-grid cell, minimum-rate class) into a weighted demand node.
type Demand struct {
	// Grid is the demand grid: the scenario grid with Side replaced by the
	// aggregation cell side.
	Grid geom.Grid
	// Cells are the demand nodes, sorted by (cell index, min rate) — the
	// node order every aggregated structure indexes by.
	Cells []DemandCell
	// NodeOf maps each user index to its demand node.
	NodeOf []int32
}

// TotalDemand returns the summed weight of all demand nodes, which always
// equals the scenario's user count.
//
//uavlint:allow testonly -- core's aggregation tests and verify's million-user test check that count with it
func (d *Demand) TotalDemand() int {
	total := 0
	for _, c := range d.Cells {
		total += c.Weight
	}
	return total
}

// aggKey bins users: one demand node per (cell, rate class) pair.
type aggKey struct {
	cell int
	rate float64
}

// Aggregate bins the scenario's users into weighted demand cells on a grid
// with the given cell side. Binning uses geom.Grid.CellOf, so users exactly
// on a cell boundary land in the same cell the per-user grid arithmetic
// assigns them to (the epsilon-floor convention); aggregation can never move
// demand across a boundary.
func Aggregate(sc *Scenario, opts AggOptions) (*Demand, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if opts.CellSide < 0 {
		return nil, fmt.Errorf("core: negative demand-cell side %g", opts.CellSide)
	}
	grid := sc.Grid
	if opts.CellSide > 0 {
		grid.Side = opts.CellSide
	}
	if err := grid.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid demand grid: %w", err)
	}

	nodeIdx := map[aggKey]int{}
	var keys []aggKey
	members := map[aggKey][]int32{}
	for i, u := range sc.Users {
		key := aggKey{cell: grid.CellOf(u.Pos), rate: u.MinRateBps}
		if _, ok := nodeIdx[key]; !ok {
			nodeIdx[key] = 0 // placeholder; final ids assigned after sorting
			keys = append(keys, key)
		}
		members[key] = append(members[key], int32(i))
	}
	// Deterministic node order: by (cell, rate). keys was collected in
	// first-seen order, which depends on user order; sorting decouples the
	// node ids from it.
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].cell != keys[b].cell {
			return keys[a].cell < keys[b].cell
		}
		return keys[a].rate < keys[b].rate
	})

	dem := &Demand{
		Grid:   grid,
		Cells:  make([]DemandCell, len(keys)),
		NodeOf: make([]int32, len(sc.Users)),
	}
	for id, key := range keys {
		mem := members[key]
		cell := DemandCell{
			Cell:       key.cell,
			MinRateBps: key.rate,
			Weight:     len(mem),
			Users:      mem,
			MinX:       math.Inf(1),
			MinY:       math.Inf(1),
			MaxX:       math.Inf(-1),
			MaxY:       math.Inf(-1),
		}
		for _, u := range mem {
			p := sc.Users[u].Pos
			cell.MinX = math.Min(cell.MinX, p.X)
			cell.MinY = math.Min(cell.MinY, p.Y)
			cell.MaxX = math.Max(cell.MaxX, p.X)
			cell.MaxY = math.Max(cell.MaxY, p.Y)
			dem.NodeOf[u] = int32(id)
		}
		dem.Cells[id] = cell
	}
	return dem, nil
}

// farthestCornerDist returns the largest distance from p to the cell's
// member bounding box — the distance to its farthest corner. Every member
// lies within this distance of p, which is what makes bbox eligibility
// conservative.
func farthestCornerDist(p geom.Point2, c *DemandCell) float64 {
	dx := math.Max(c.MaxX-p.X, p.X-c.MinX)
	dy := math.Max(c.MaxY-p.Y, p.Y-c.MinY)
	return math.Hypot(dx, dy)
}

// NewAggregateInstance builds an aggregated Instance: users are coarsened
// into weighted demand cells (Aggregate), eligibility is computed per
// (class, location, demand cell) instead of per user — one memoized
// channel-model coverage radius per (class, rate), one bounding-box test per
// cell — and the matching layer runs the weighted b-matcher over the cells.
//
// Eligibility is conservative: a demand cell is eligible at a location only
// if the farthest corner of its member bounding box is within serving
// distance, so every unit of served demand expands to a per-user assignment
// that satisfies the rate and range constraints individually —
// verify.CheckDeployment holds on the expansion by construction. The price
// is that boundary demand a per-user solve could partially serve may be
// skipped; when every cell's members are co-located (e.g. positions snapped
// to the demand grid, workload.UserOptions.SnapSide) the criterion is exact
// and aggregated and per-user solves agree — the homogeneity condition the
// differential suite in internal/verify exercises.
//
// The aggregated instance evaluates subsets in O(demand cells) instead of
// O(users); a million users on a 3 km area with 250 m demand cells collapse
// to a few hundred nodes. Approx, EvaluateFixed, Verify, checkpoints and the
// gateway extension all accept aggregated instances; RefineAssignment,
// DeployOptimal and the baselines require per-user instances and say so.
func NewAggregateInstance(sc *Scenario, opts AggOptions) (*Instance, error) {
	dem, err := Aggregate(sc, opts)
	if err != nil {
		return nil, err
	}
	in, classes, err := newInstanceSkeleton(sc)
	if err != nil {
		return nil, err
	}
	in.Demand = dem
	nn := len(dem.Cells)
	in.Weights = make([]int, nn)
	for i := range dem.Cells {
		in.Weights[i] = dem.Cells[i].Weight
	}

	m := len(in.Centers)
	alt := sc.Grid.Altitude
	in.Eligible = make([][][]int, len(classes))
	in.EligMask = make([][]match.Bitset, len(classes))
	in.EligWeight = make([][]int, len(classes))
	for c, key := range classes {
		tx := channel.Transmitter{PowerDBm: key.powerDBm, AntennaGainDBi: key.gainDBi}
		radiusByRate := map[float64]float64{}
		maxDist := make([]float64, nn)
		for i := range dem.Cells {
			rate := dem.Cells[i].MinRateBps
			r, ok := radiusByRate[rate]
			if !ok {
				r = sc.Channel.CoverageRadius(tx, alt, rate)
				radiusByRate[rate] = r
			}
			d := r
			if key.userRange > 0 && key.userRange < d {
				d = key.userRange
			}
			maxDist[i] = d
		}
		perLoc := make([][]int, m)
		perLocMask := make([]match.Bitset, m)
		perLocWeight := make([]int, m)
		for j := 0; j < m; j++ {
			var el []int
			total := 0
			for i := range dem.Cells {
				if maxDist[i] > 0 && farthestCornerDist(in.Centers[j], &dem.Cells[i]) <= maxDist[i] {
					el = append(el, i)
					total += dem.Cells[i].Weight
				}
			}
			perLoc[j] = el
			perLocMask[j] = match.BitsetFromSorted(nn, el)
			perLocWeight[j] = total
		}
		in.Eligible[c] = perLoc
		in.EligMask[c] = perLocMask
		in.EligWeight[c] = perLocWeight
	}
	return in, nil
}

// aggFingerprint mixes the demand-grid shape into a scenario fingerprint.
// Only the grid side and node count enter beyond the scenario hash: the
// cells themselves are a pure function of (scenario, grid side).
func aggFingerprint(scenarioFP uint64, dem *Demand) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "agg|%016x|%v|%d", scenarioFP, dem.Grid.Side, len(dem.Cells))
	return h.Sum64()
}

// AggregateFingerprint returns the Instance.Fingerprint an aggregated
// instance of the scenario would carry, without building the instance (no
// topology or eligibility work — O(n) binning only). uavgen prints it so
// checkpoint files can be matched to a (scenario, cell side) pair up front.
func AggregateFingerprint(sc *Scenario, opts AggOptions) (uint64, error) {
	dem, err := Aggregate(sc, opts)
	if err != nil {
		return 0, err
	}
	return aggFingerprint(sc.Fingerprint(), dem), nil
}

// AggregationExact reports whether aggregation lost nothing on this
// scenario: for every class and location, each demand cell is eligible
// exactly when every one of its members is individually eligible. Under
// this condition the weighted b-matching over cells and the unit b-matching
// over users have equal values for every placement, so aggregated and
// per-user solves agree. It holds in particular when every cell's members
// are co-located (degenerate bounding boxes). perUser and agg must be built
// from the same scenario.
func AggregationExact(perUser, agg *Instance) bool {
	if !agg.Aggregated() || perUser.Aggregated() {
		return false
	}
	if len(perUser.Eligible) != len(agg.Eligible) {
		return false
	}
	for c := range agg.Eligible {
		for j := range agg.Eligible[c] {
			nodeMask := agg.EligMask[c][j]
			userMask := perUser.EligMask[c][j]
			for i := range agg.Demand.Cells {
				want := nodeMask.Has(i)
				for _, u := range agg.Demand.Cells[i].Users {
					if userMask.Has(int(u)) != want {
						return false
					}
				}
			}
		}
	}
	return true
}

// solveAggregate computes the optimal weighted assignment for a slot
// placement on an aggregated instance and expands it to per-user form:
// slots are committed in order into a fresh weighted matcher (the matching
// value is commit-order independent, so this equals the evaluation-time
// score), then each slot's per-node flow is expanded onto that node's
// members in ascending user order. The returned assignment is slot-indexed,
// mirroring assign.Solve; the expansion is deterministic and — because
// aggregated eligibility is conservative — satisfies every member's rate
// and range constraints individually.
func solveAggregate(in *Instance, caps []int, elig [][]int) (assign.Assignment, error) {
	dem := in.Demand
	if dem == nil {
		return assign.Assignment{}, fmt.Errorf("core: solveAggregate on a per-user instance")
	}
	wm, err := match.NewWeightedMatcher(in.Weights, len(caps))
	if err != nil {
		return assign.Assignment{}, err
	}
	for k := range caps {
		if _, err := wm.Commit(caps[k], elig[k]); err != nil {
			return assign.Assignment{}, err
		}
	}
	n := in.Scenario.N()
	a := assign.Assignment{
		Served:      wm.Served(),
		UserStation: make([]int, n),
		PerStation:  make([]int, len(caps)),
	}
	for i := range a.UserStation {
		a.UserStation[i] = assign.Unassigned
	}
	cursor := make([]int, len(dem.Cells))
	for k := range caps {
		for _, node := range elig[k] {
			f := wm.Flow(k, node)
			for i := 0; i < f; i++ {
				u := dem.Cells[node].Users[cursor[node]]
				cursor[node]++
				a.UserStation[u] = k
			}
			a.PerStation[k] += f
		}
	}
	return a, nil
}
