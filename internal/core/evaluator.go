package core

import (
	"fmt"
	"sort"

	"github.com/uav-coverage/uavnet/internal/graph"
	"github.com/uav-coverage/uavnet/internal/match"
	"github.com/uav-coverage/uavnet/internal/matroid"
)

func errInfeasibleSubset(anchors []int) error {
	return fmt.Errorf("core: anchor subset %v is infeasible (disconnected or needs more than K nodes)", anchors)
}

// SubsetEvaluator is the allocation-free per-subset body of Algorithm 2
// (greedy placement under M1 /\ M2, MST relay connection, q_j <= K
// feasibility, leftover extension, exact scoring through the incremental
// matcher) as one object. Every enumeration worker scores its anchor subsets
// through one, and so does every metaheuristic portfolio member, so a
// neighborhood move costs exactly one enumeration step.
//
// The evaluator owns its matcher and every buffer the body needs — M2
// distances, the greedy runner's heap and its presorted seed order, the MST
// edge/tree buffers, relay paths, node sets (boolean masks instead of maps),
// slot lists, and the leftover extension's claim and candidate tables — and
// recycles them across evaluations, so a steady-state Evaluate allocates
// nothing. It must not be shared between goroutines; each worker and each
// member builds its own.
//
// The masks are cleared by their users after each subset (node lists are
// short), the claim set once per leftover extension (a node bitset); the
// used-cell and candidate tables use epoch stamping so they are never
// cleared at all.
//
//uavlint:scratch epoch=epoch tables=used
//uavlint:scratch epoch=visitEpoch tables=visited
type SubsetEvaluator struct {
	in     *Instance
	opts   Options
	s      int
	budget Budget
	// caps[r] is the capacity of the r-th largest UAV, the one the greedy's
	// round r and slot r place.
	caps  []int
	evals int64
	// engine scores placements: match.Matcher on per-user instances,
	// match.WeightedMatcher on aggregated ones.
	engine gainEngine

	// Hop distances from the anchor set (matroid M2), and the greedy over
	// it: every cell presorted once by (static bound desc, cell asc).
	dist   []int
	m2     matroid.HopCount
	order  matroid.Presorted
	runner matroid.LazyRunner
	// Relay connection (MST + path oracle).
	mst      graph.MSTScratch
	path     []int
	nodeMark []bool
	nodes    []int
	// Slot assembly.
	slotLoc []int
	selMark []bool
	relays  []int
	// Leftover extension claims, indexed by demand node: claimed holds the
	// nodes an earlier slot of the current extension claimed from, and
	// claimAmt[u] (valid only while u is in claimed) how much of node u's
	// weight is taken. Claims are partial on aggregated instances. Unit
	// instances have weight 1 everywhere, so a claim is all-or-nothing and
	// claimAmt is always 1 — the bookkeeping degenerates to a node set.
	// used stamps the cells the extension has placed a UAV on.
	claimed  match.Bitset
	claimAmt []int
	used     []int64
	epoch    int64
	// Leftover candidates already scored for the current slot, stamped
	// once per slot so a cell adjacent to several network nodes is scored
	// once.
	visited    []int64
	visitEpoch int64
}

// gainEngine is the incremental what-if/commit contract the greedy drives.
// match.Matcher (per-user instances) and match.WeightedMatcher (aggregated
// ones) satisfy it.
type gainEngine interface {
	Reset() error
	Served() int
	Gain(capacity int, eligible []int) (int, error)
	Commit(capacity int, eligible []int) (int, error)
	GainBound(capacity int, eligMask match.Bitset) int
}

// EvalResult is one anchor subset's evaluation.
type EvalResult struct {
	// Feasible reports whether the subset yielded a deployable network
	// (connected anchors, greedy found members, q_j <= K). Infeasible
	// subsets leave the other fields zero.
	Feasible bool
	// Served is the exact optimally-served count for the placement.
	Served int
	// Locs is the location per sorted-capacity UAV slot. It aliases a
	// buffer of the evaluator and is overwritten by the next Evaluate call;
	// copy it before retaining.
	Locs []int
	// NSel is the prefix of Locs chosen by the M1 /\ M2 greedy phase
	// (the rest are relays and leftover extensions).
	NSel int
}

// NewSubsetEvaluator prepares an evaluator for the instance. Options are
// interpreted as by Approx (S clamped via effectiveS, DisablePrune,
// GroundLeftovers honored); enumeration-control fields
// (MaxSubsets, Shard, StopAfter, Resume) are ignored.
func NewSubsetEvaluator(in *Instance, opts Options) (*SubsetEvaluator, error) {
	opts = opts.withDefaults()
	sc := in.Scenario
	k, m, n := sc.K(), sc.M(), in.NumNodes()
	s, err := effectiveS(opts.S, k, m)
	if err != nil {
		return nil, err
	}
	budget, err := PlanBudget(k, s)
	if err != nil {
		return nil, err
	}
	caps := make([]int, k)
	for r, uav := range in.ByCapacity {
		caps[r] = sc.UAVs[uav].Capacity
	}
	var engine gainEngine
	if in.Aggregated() {
		engine, err = match.NewWeightedMatcher(in.Weights, k)
	} else {
		engine, err = match.NewMatcher(n, k)
	}
	if err != nil {
		return nil, err
	}
	e := &SubsetEvaluator{
		in:       in,
		opts:     opts,
		s:        s,
		budget:   budget,
		caps:     caps,
		engine:   engine,
		dist:     make([]int, m),
		nodeMark: make([]bool, m),
		selMark:  make([]bool, m),
		claimed:  match.NewBitset(n),
		claimAmt: make([]int, n),
		used:     make([]int64, m),
		visited:  make([]int64, m),
	}
	// The M2 matroid aliases e.dist, which every evaluation refills in
	// place, and its hop-budget vector q (the Q_h caps of Eq. (1)) is the
	// same for every subset, so it is built once per evaluator.
	e.m2 = matroid.HopCount{Dist: e.dist, Q: QValues(budget.LMax, budget.P)}
	e.order = matroid.Presort(m, (*greedyOracle)(e))
	return e, nil
}

// S returns the effective anchor-subset size (requested S clamped to the
// instance).
func (e *SubsetEvaluator) S() int { return e.s }

// Budget returns the Algorithm 1 budget the evaluator scores under.
func (e *SubsetEvaluator) Budget() Budget { return e.budget }

// Evaluations returns how many Evaluate calls the evaluator has served —
// the unit the portfolio's run budget is counted in.
func (e *SubsetEvaluator) Evaluations() int64 { return e.evals }

// SetEvaluations overwrites the evaluation counter. Resuming a checkpointed
// portfolio member restores the counter so the remaining budget is exactly
// what the interrupted run had left.
func (e *SubsetEvaluator) SetEvaluations(n int64) { e.evals = n }

// Evaluate scores one anchor subset exactly as an enumeration step would.
// anchors must be sorted distinct cell indices of length S(). Subsets the
// enumeration would prune or find infeasible return Feasible == false; that
// is an answer, not an error. The result's Locs aliases the evaluator's
// memory.
func (e *SubsetEvaluator) Evaluate(anchors []int) (EvalResult, error) {
	res, _, err := e.evaluate(anchors)
	return res, err
}

// BuildDeployment re-evaluates the subset and assembles the full Deployment
// (original UAV order, exact final assignment, Anchors and Budget set). The
// caller names the Algorithm. Infeasible subsets are an error here — callers
// hold a feasible best when they finalize.
func (e *SubsetEvaluator) BuildDeployment(anchors []int) (*Deployment, error) {
	res, err := e.Evaluate(anchors)
	if err != nil {
		return nil, err
	}
	if !res.Feasible {
		return nil, errInfeasibleSubset(anchors)
	}
	dep, err := finalizeDeployment(e.in, res.Locs, res.NSel)
	if err != nil {
		return nil, err
	}
	dep.Anchors = append([]int(nil), anchors...)
	dep.Budget = e.budget
	return dep, nil
}

// evaluate runs the per-subset body of Algorithm 2 (lines 5-23) on one
// anchor subset and counts the evaluation: greedy placement of up to L_max
// UAVs under M1 /\ M2, MST-based relay connection, feasibility check
// q_j <= K, and full evaluation. pruned reports a subset that the
// requirement filter or the sound pruning rule skipped. All working memory
// is the evaluator's own, so the call allocates nothing in steady state;
// the returned res.Locs aliases it and must be copied by callers that
// retain it past the next evaluation.
func (e *SubsetEvaluator) evaluate(anchors []int) (res EvalResult, pruned bool, err error) {
	e.evals++
	in, opts, o := e.in, e.opts, (*greedyOracle)(e)
	k := in.Scenario.K()

	// Requirement filter: the subset must touch a required cell (if any).
	if len(opts.RequiredCells) > 0 {
		found := false
	outer:
		for _, a := range anchors {
			for _, r := range opts.RequiredCells {
				if a == r {
					found = true
					break outer
				}
			}
		}
		if !found {
			return res, true, nil
		}
	}

	// Anchors in different components can never form a connected network;
	// such subsets are infeasible regardless of pruning settings. The sound
	// pruning rule additionally skips subsets whose anchors alone already
	// need more than K nodes to connect: any connected subgraph containing
	// two anchors at hop distance h has at least h+1 nodes, and the anchors
	// always end up in V'_j ⊆ V_j, so the q_j <= K check must fail.
	maxHop := 0
	for i := 0; i < len(anchors); i++ {
		for j := i + 1; j < len(anchors); j++ {
			d := in.Hop[anchors[i]][anchors[j]]
			if d == graph.Unreachable {
				return res, !opts.DisablePrune, nil
			}
			if d > maxHop {
				maxHop = d
			}
		}
	}
	if !opts.DisablePrune && maxHop+1 > k {
		return res, true, nil
	}

	// Hop distances from the anchor set define matroid M2: the element-wise
	// minimum of the anchors' precomputed hop rows, which is the
	// multi-source BFS distance. The M2 view aliases e.dist.
	in.Paths.MultiSourceDistInto(anchors, e.dist)

	// The greedy's ground set is every cell within hmax hops of the anchors;
	// RunHop keeps only the M2-feasible ones on its heap.
	if err := e.engine.Reset(); err != nil {
		return res, false, err
	}
	selected, err := e.runner.RunHop(e.order, e.m2, e.budget.LMax, o)
	if err != nil {
		return res, false, err
	}
	if len(selected) == 0 {
		return res, false, nil
	}

	// Connect V'_j: MST over the hop metric, then union of shortest paths
	// read from the instance's precomputed path oracle.
	nodes, err := e.connectLocations(selected)
	if err != nil {
		return res, false, err
	}
	if len(nodes) > k {
		return res, false, nil // q_j > K: infeasible subset (line 16)
	}

	// Deploy remaining UAVs (by decreasing capacity) on relay nodes. nodes
	// is sorted, so the filtered relay list arrives sorted too.
	slotLoc := append(e.slotLoc[:0], selected...)
	for _, v := range selected {
		e.selMark[v] = true
	}
	relays := e.relays[:0]
	for _, v := range nodes {
		if !e.selMark[v] {
			relays = append(relays, v)
		}
	}
	for _, v := range selected {
		e.selMark[v] = false
	}
	e.relays = relays
	slotLoc = append(slotLoc, relays...)

	if !opts.GroundLeftovers {
		slotLoc = e.extendWithLeftovers(slotLoc)
	}
	e.slotLoc = slotLoc

	// Score the full placement by continuing the greedy's committed
	// matching: the first len(selected) slots are already committed, so only
	// the relay and leftover stations need augmenting. The matching value is
	// independent of commit order, so this equals a from-scratch solve.
	for slot := len(selected); slot < len(slotLoc); slot++ {
		if _, err := o.Commit(slot, slotLoc[slot]); err != nil {
			return res, false, err
		}
	}
	return EvalResult{Feasible: true, Served: e.engine.Served(), Locs: slotLoc, NSel: len(selected)}, false, nil
}

// greedyOracle is the evaluator as the lazy greedy sees it: a
// matroid.Oracle whose round r places the r-th largest-capacity UAV, and
// whose marginal gain for a location is the increase in optimally-served
// users (on aggregated instances, optimally-served demand units — the same
// quantity after expansion), with the Bounder, DynamicBounder and Rekeyer
// extensions. It is a view of the evaluator with no fields of its own, so
// its methods stay off the evaluator's exported method set.
type greedyOracle SubsetEvaluator

// class returns the eligibility class of the UAV round r places.
func (o *greedyOracle) class(round int) int {
	return o.in.ClassOf[o.in.ByCapacity[round]]
}

func (o *greedyOracle) eligible(round, loc int) []int {
	return o.in.Eligible[o.class(round)][loc]
}

// Gain implements matroid.Oracle.
func (o *greedyOracle) Gain(round, loc int) (int, error) {
	return o.engine.Gain(o.caps[round], o.eligible(round, loc))
}

// Commit implements matroid.Oracle.
func (o *greedyOracle) Commit(round, loc int) (int, error) {
	return o.engine.Commit(o.caps[round], o.eligible(round, loc))
}

// Bound implements matroid.Bounder: a placement can never serve more users
// than the first-round capacity allows or than are eligible at the location
// for the first-round UAV's class (eligible demand weight, on aggregated
// instances). Capacities only fall from round to round, so this bounds
// every gain up to the first round whose UAV has another radio, where Rekey
// re-keys the greedy.
func (o *greedyOracle) Bound(loc int) int {
	return min(o.caps[0], o.in.eligTotal(o.class(0), loc))
}

// RoundBound implements matroid.DynamicBounder: it popcounts the
// location's eligibility mask against the matcher's still-augmentable user
// set, bounding the gain in a few word operations (see
// match.Matcher.GainBound for why that set, not merely the unserved one, is
// the sound choice). Sound bounds of any tightness leave the selection
// identical.
func (o *greedyOracle) RoundBound(round, loc int) int {
	return o.engine.GainBound(o.caps[round], o.in.EligMask[o.class(round)][loc])
}

// Rekey implements matroid.Rekeyer. A location's gain cannot rise while
// the rounds place UAVs of one class: the committed set only grows and
// capacities only fall. A UAV of another class is eligible for other users,
// so at a class change a location can gain more than any key carried from
// an earlier round.
func (o *greedyOracle) Rekey(round int) bool {
	return o.class(round) != o.class(round-1)
}

// connectLocations returns the sorted node set of the connected subgraph
// G_j (Algorithm 2 lines 13-15): an MST of the selected locations under the
// hop metric, read from the instance's precomputed hop matrix, with each
// tree edge replaced by the path oracle's shortest path. The returned slice
// is the evaluator's and valid until the next call.
func (e *SubsetEvaluator) connectLocations(selected []int) ([]int, error) {
	nodes := e.nodes[:0]
	for _, v := range selected {
		if !e.nodeMark[v] {
			e.nodeMark[v] = true
			nodes = append(nodes, v)
		}
	}
	var connectErr error
	if len(selected) > 1 {
		tree, _, err := e.mst.CompleteHopMST(e.in.Hop, selected)
		if err != nil {
			connectErr = err
		}
		for _, te := range tree {
			if connectErr != nil {
				break
			}
			path := e.in.Paths.PathInto(selected[te.U], selected[te.V], e.path)
			if path == nil {
				connectErr = fmt.Errorf("core: lost path between %d and %d", selected[te.U], selected[te.V])
				break
			}
			e.path = path
			for _, v := range path {
				if !e.nodeMark[v] {
					e.nodeMark[v] = true
					nodes = append(nodes, v)
				}
			}
		}
	}
	for _, v := range nodes {
		e.nodeMark[v] = false
	}
	e.nodes = nodes
	if connectErr != nil {
		return nil, connectErr
	}
	sort.Ints(nodes)
	return nodes, nil
}

// claimAvail returns how much of node u's weight is still unclaimed in the
// current extension (on unit instances: 1 if unclaimed, 0 if claimed).
func (e *SubsetEvaluator) claimAvail(u int) int {
	if !e.claimed.Has(u) {
		return e.in.weightOf(u)
	}
	return e.in.weightOf(u) - e.claimAmt[u]
}

// unclaimedAt returns the demand eligible for the class at loc that no slot
// of the current extension has claimed: the eligible total less the claimed
// part, read from the eligibility mask in word operations — a popcount on
// unit instances, where every claim takes a whole user.
func (e *SubsetEvaluator) unclaimedAt(class, loc int) int {
	total, mask := e.in.eligTotal(class, loc), e.in.EligMask[class][loc]
	if e.in.Weights == nil {
		return total - match.AndCount(mask, e.claimed)
	}
	return total - match.AndWeightSum(mask, e.claimed, e.claimAmt)
}

// claimUsers greedily claims up to caps[slot] still-unclaimed demand units
// eligible for the slot's UAV at loc, adding the touched nodes to the claim
// set. Claims are partial on weighted nodes; on unit instances this is the
// original one-user-per-claim protocol.
func (e *SubsetEvaluator) claimUsers(slot, loc int) {
	budget := e.caps[slot]
	got := 0
	for _, u := range e.in.EligibleUsers(e.in.ByCapacity[slot], loc) {
		if got == budget {
			break
		}
		avail := e.claimAvail(u)
		if avail <= 0 {
			continue
		}
		take := min(avail, budget-got)
		if !e.claimed.Has(u) {
			e.claimed.Set(u)
			e.claimAmt[u] = 0
		}
		e.claimAmt[u] += take
		got += take
	}
}

// extendWithLeftovers deploys the UAVs left over after the q_j network
// members, one by one in decreasing-capacity order: each goes to the free
// cell adjacent to the current network that covers the most users not yet
// claimed by an earlier slot (claims are capacity-capped), keeping the
// network connected by construction. UAVs with no positive-gain cell stay
// grounded. The claim bookkeeping is a fast surrogate for the exact flow
// oracle; the caller rescores the final placement exactly. The claim set is
// a node bitset, so a candidate's gain is a few word operations over its
// eligibility mask; it and the epoch-stamped used-cell and candidate tables
// are the evaluator's, so repeated calls allocate nothing.
func (e *SubsetEvaluator) extendWithLeftovers(slotLoc []int) []int {
	in := e.in
	k := in.Scenario.K()
	if len(slotLoc) >= k {
		return slotLoc
	}
	e.epoch++
	clear(e.claimed)
	for slot, loc := range slotLoc {
		e.used[loc] = e.epoch
		e.claimUsers(slot, loc)
	}
	for slot := len(slotLoc); slot < k; slot++ {
		class := in.ClassOf[in.ByCapacity[slot]]
		budget := e.caps[slot]
		bestLoc, bestGain := -1, 0
		// Network nodes share most of their neighbours; each candidate is
		// scored once per slot. The winner (largest gain, ties to the
		// smallest cell) does not depend on the visit order.
		e.visitEpoch++
		for _, v := range slotLoc {
			for _, nb := range in.LocGraph.Neighbors(v) {
				if e.used[nb] == e.epoch || e.visited[nb] == e.visitEpoch {
					continue
				}
				e.visited[nb] = e.visitEpoch
				gain := min(budget, e.unclaimedAt(class, nb))
				if gain > bestGain || (gain == bestGain && gain > 0 && nb < bestLoc) {
					bestLoc, bestGain = nb, gain
				}
			}
		}
		if bestLoc == -1 {
			break
		}
		slotLoc = append(slotLoc, bestLoc)
		e.used[bestLoc] = e.epoch
		e.claimUsers(slot, bestLoc)
	}
	return slotLoc
}
