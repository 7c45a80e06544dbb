package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/uav-coverage/uavnet/internal/assign"
	"github.com/uav-coverage/uavnet/internal/graph"
	"github.com/uav-coverage/uavnet/internal/match"
)

// Options configure the approximation algorithm (Algorithm 2).
type Options struct {
	// S is the anchor-subset size s; larger values improve the approximation
	// ratio O(sqrt(s/K)) at a time cost of O(m^{s+1}). The paper recommends
	// s = 3. Values above K are clamped to K. Default (0): 3.
	S int
	// DisablePrune turns off the sound Steiner-lower-bound pruning of anchor
	// subsets. Pruning never changes the result (pruned subsets can never
	// yield a feasible <= K-node network); disabling it exists for testing
	// and for measuring the pruning's effect.
	DisablePrune bool
	// MaxSubsets caps the number of anchor subsets evaluated. Zero means
	// exhaustive enumeration (the paper's algorithm). When the cap is lower
	// than C(m, s), a deterministic pseudo-random sample of subsets (seeded
	// by Seed) is evaluated instead; the approximation guarantee is then
	// probabilistic rather than worst-case. Samples are drawn independently
	// per index — i.e. with replacement across the MaxSubsets draws — see
	// subsetSource for why and why that is harmless.
	MaxSubsets int
	// Workers is the number of goroutines evaluating subsets concurrently.
	// Zero selects runtime.GOMAXPROCS(0). The result is deterministic
	// regardless of the worker count.
	Workers int
	// Seed drives subset sampling when MaxSubsets is in effect.
	Seed int64
	// RequiredCells, when non-empty, restricts the search to anchor subsets
	// containing at least one of these cells, which therefore end up in the
	// deployed network. The gateway extension uses this to guarantee that
	// some UAV hovers within relay range of the gateway (Fig. 1).
	RequiredCells []int
	// GroundLeftovers keeps UAVs beyond the q_j network members grounded,
	// which is what Algorithm 2's pseudocode literally states. By default
	// (false) the implementation extends the network greedily with the
	// remaining UAVs — placing each next-largest-capacity UAV on the
	// adjacent free cell that covers the most still-unclaimed users — which
	// never reduces the served count and matches the paper's measured
	// behaviour (its reported approAlg results are only achievable when all
	// K UAVs fly).
	GroundLeftovers bool
	// Shard, when its Count is non-zero, restricts the run to one
	// contiguous shard of the enumeration index space: shard Index of Count
	// (see ShardSpec.Range). The run never inspects an index outside its
	// shard; when it exhausts the shard it returns the best deployment over
	// that range tagged StatusPartial, carrying the partial Checkpoint that
	// MergeCheckpoints combines into the full-enumeration result. In
	// sampled mode the shard owns the corresponding sub-range of sample
	// indices — each index reseeds the RNG, so per-shard sample streams are
	// deterministic and disjoint by construction. The zero value solves the
	// whole space.
	Shard ShardSpec
	// StopAfter, when positive, stops the run once the claim cursor reaches
	// this absolute enumeration index (counting from the start of the
	// enumeration, including any prefix covered by a resumed checkpoint —
	// under Shard, indices below the shard's range are not counted against
	// the budget since they were never this run's work). The run then
	// returns a StatusStopped deployment carrying a Checkpoint, exactly as
	// if the context had been cancelled at that point — a deterministic
	// work budget for incremental sweeps. Zero runs to completion.
	StopAfter int64
	// Resume restarts a run from a checkpoint produced by an earlier
	// stopped run. The checkpoint must match this run exactly (scenario
	// fingerprint, effective s, seed, subset cap, prune/leftover flags,
	// required cells, and shard — a partial checkpoint resumes only under
	// the same Shard, an unsharded or merged one only without); Approx
	// rejects any mismatch. A merged checkpoint's Remaining holes are
	// re-enumerated exactly. A resumed run that finishes yields a
	// deployment byte-identical to an uninterrupted one. A portfolio race
	// (Solver) resumes from a KindPortfolio checkpoint the same way; each
	// solver rejects the other's kind.
	Resume *Checkpoint
	// Progress, when non-nil, receives periodic Progress snapshots from a
	// monitor goroutine every ProgressInterval, plus one final synchronous
	// snapshot just before Approx returns. The hook must be safe to call
	// from another goroutine and should return quickly.
	Progress func(Progress)
	// ProgressInterval is the sampling period of the Progress hook.
	// Zero or negative selects one second.
	ProgressInterval time.Duration
	// Solver selects how the anchor-subset space is searched. "" or "enum"
	// run the paper's enumeration (this function). Any other value names a
	// metaheuristic from internal/portfolio — "anneal", "tabu", "grasp",
	// "genetic", or "portfolio" to race all four — which trades the
	// worst-case guarantee for a budgeted local search that escapes the
	// C(m, s) wall at large m. Approx itself rejects those values; the
	// facade dispatches them to the portfolio driver.
	Solver string
	// SolverBudget caps the subset evaluations each metaheuristic member may
	// spend when Solver selects one (zero picks the portfolio package's
	// default). The budget is counted in evaluations, never wall clock, so
	// same seed + same budget reproduce the same deployment byte for byte.
	// Enumeration ignores it.
	SolverBudget int64
}

// SolverIsEnum reports whether the options select the exhaustive/sampled
// enumeration (Algorithm 2) rather than a metaheuristic solver.
func (o Options) SolverIsEnum() bool { return o.Solver == "" || o.Solver == "enum" }

func (o Options) withDefaults() Options {
	if o.S == 0 {
		o.S = 3
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Deployment is the output of a placement algorithm: where each UAV flies
// and which users it serves.
type Deployment struct {
	// Algorithm names the algorithm that produced the deployment.
	Algorithm string
	// LocationOf[k] is the hovering location (cell index) of UAV k in the
	// scenario's original UAV order, or -1 if UAV k stays grounded.
	LocationOf []int
	// Served is the number of users served.
	Served int
	// Assignment is the optimal user assignment for the chosen placement.
	Assignment assign.Assignment
	// Anchors holds the winning anchor subset V*_j (approAlg only).
	Anchors []int
	// Selected holds the locations chosen by the greedy phase under the
	// matroid constraints M1 /\ M2, in selection order (approAlg only).
	// Deployed locations beyond Selected are relays and leftover extensions.
	// Verifiers use it to re-check the hop-count budgets Q_h of Eq. (1).
	Selected []int
	// Budget is the Algorithm 1 budget used (approAlg only).
	Budget Budget
	// SubsetsEvaluated and SubsetsPruned count the anchor subsets examined
	// and skipped by the sound pruning rule (approAlg only).
	SubsetsEvaluated, SubsetsPruned int64
	// Status reports whether the run exhausted the enumeration
	// (StatusComplete), was stopped early (StatusStopped), or — under
	// Options.Shard — exhausted exactly its own shard range
	// (StatusPartial). Algorithms other than approAlg always complete.
	// Zero-valued for deployments predating the run-control layer; treat
	// "" as complete.
	Status RunStatus `json:",omitempty"`
	// Checkpoint resumes a stopped run or feeds a partial one into
	// MergeCheckpoints (set when Status is StatusStopped or StatusPartial;
	// see Options.Resume). It is excluded from the deployment's JSON form
	// so stopped-then-resumed and uninterrupted runs serialize identically
	// once finished.
	Checkpoint *Checkpoint `json:"-"`
}

// DeployedLocations returns the sorted distinct locations that received a UAV.
func (d *Deployment) DeployedLocations() []int {
	var locs []int
	for _, l := range d.LocationOf {
		if l >= 0 {
			locs = append(locs, l)
		}
	}
	sort.Ints(locs)
	return locs
}

// DeployedCount returns the number of UAVs actually deployed.
func (d *Deployment) DeployedCount() int {
	c := 0
	for _, l := range d.LocationOf {
		if l >= 0 {
			c++
		}
	}
	return c
}

// subsetResult is one anchor subset's outcome, used for the deterministic
// parallel reduction.
type subsetResult struct {
	idx    int64 // enumeration index of the subset
	served int
	locs   []int // location per sorted-capacity UAV slot (slot i -> locs[i])
	nsel   int   // prefix of locs chosen by the M1 /\ M2 greedy phase
}

// better reports whether a beats b under the deterministic order
// (more served users first, then smaller enumeration index).
func (a subsetResult) better(b subsetResult) bool {
	if a.served != b.served {
		return a.served > b.served
	}
	return a.idx < b.idx
}

// Approx runs Algorithm 2 on the instance and returns the best deployment it
// finds. The returned deployment always satisfies all three constraints of
// Section II-C: per-UAV capacities, per-user minimum rates (by construction
// of the eligibility lists), and connectivity of the deployed network.
//
// Run control: the enumeration honors ctx. On cancellation or deadline,
// workers finish only their already-claimed chunk, every goroutine and the
// results channel are torn down, and Approx returns the best-so-far
// deployment with Status StatusStopped and a resumable Checkpoint — TOGETHER
// WITH ctx.Err(). Callers that care about partial results must therefore
// inspect the deployment even when the error is non-nil; callers that treat
// cancellation as plain failure can keep the usual "if err != nil" shape. A
// nil ctx is treated as context.Background().
func Approx(ctx context.Context, in *Instance, opts Options) (*Deployment, error) {
	if ctx == nil {
		ctx = context.Background() //uavlint:allow ctxthread -- nil-ctx normalization at the API boundary
	}
	start := time.Now() //uavlint:allow timenow -- progress/ETA clock; never feeds a solver decision
	opts = opts.withDefaults()
	if !opts.SolverIsEnum() {
		return nil, fmt.Errorf("core: Approx runs the enumeration only; solver %q is served by portfolio.Race (use the uavnet facade)", opts.Solver)
	}
	sc := in.Scenario
	k, m := sc.K(), sc.M()

	s, err := effectiveS(opts.S, k, m)
	if err != nil {
		return nil, err
	}

	budget, err := PlanBudget(k, s)
	if err != nil {
		return nil, err
	}
	q := QValues(budget.LMax, budget.P)

	// Capacities in greedy order: round r deploys the r-th largest capacity.
	caps := make([]int, k)
	for r, uav := range in.ByCapacity {
		caps[r] = sc.UAVs[uav].Capacity
	}

	total, sampled := subsetSpace(m, s, opts)

	if err := opts.Shard.check(); err != nil {
		return nil, err
	}
	// scope is this run's slice of the enumeration: its shard's range, or
	// the whole space. work lists the sub-ranges still unprocessed within
	// the scope — the whole scope on a fresh run, a resumed checkpoint's
	// leftover otherwise (a single suffix, or several holes when resuming a
	// merged checkpoint).
	scope := opts.Shard.Range(total)
	work := []Span{scope}

	// Resume support: seed the work list, counters, and running best from
	// the checkpoint after proving it describes this exact run. The
	// enumeration is a pure function of (Seed, index), so the processed set
	// plus the checkpointed best reproduce the interrupted run's state with
	// no RNG snapshotting (sampling reseeds per index).
	best := subsetResult{idx: -1, served: -1}
	var baseEvaluated, basePruned int64
	if opts.Resume != nil {
		if err := opts.Resume.validate(in, s, opts, total, sampled); err != nil {
			return nil, err
		}
		work = opts.Resume.RemainingSpans()
		baseEvaluated = opts.Resume.Evaluated
		basePruned = opts.Resume.Pruned
		if b := opts.Resume.Best; b != nil {
			best = subsetResult{idx: b.Idx, served: b.Served, locs: append([]int(nil), b.Locs...), nsel: b.NSel}
		}
	}
	// Workers claim virtual offsets in [0, stopV) — a flattened view of the
	// work list — and map them back to real enumeration indices through the
	// prefix sums. baseDone is the scope prefix a resumed checkpoint already
	// covered; stopV truncates this run's claimable work to the StopAfter
	// budget (an absolute enumeration index, so already-done units are not
	// billed again and a budget at or below the resumed frontier claims
	// nothing rather than rewinding it).
	baseDone := scope.Len() - spanUnits(work)
	stopV := spanUnits(work)
	if opts.StopAfter > 0 {
		if v := unitsBefore(work, opts.StopAfter); v < stopV {
			stopV = v
		}
	}
	prefix := make([]int64, len(work)+1)
	for i, sp := range work {
		prefix[i+1] = prefix[i] + sp.Len()
	}

	// Workers claim fixed-size chunks of the virtual offset space from a
	// shared cursor and fold local bests. Each worker owns a subset source
	// (stepping incrementally inside a span run), a placement oracle, and a
	// scratch arena, so the steady-state evaluation loop allocates nothing.
	// The reduction — most served users, then smallest enumeration index —
	// is associative and order-independent, so the chosen deployment never
	// depends on the worker count or on how chunks interleave.
	//
	// Cancellation is checked between chunks, never inside one: a claimed
	// chunk is always finished. That bounds the drain latency by one chunk
	// (16 subset evaluations) and makes the processed offsets the exact
	// contiguous prefix [0, min(cursor, stopV)) of the work list, which is
	// what lets a checkpoint record a cursor (plus the work list's holes,
	// if any) instead of a bitmap.
	type workerOut struct {
		best              subsetResult
		pruned, evaluated int64
		err               error
	}
	results := make(chan workerOut, opts.Workers)
	var cursor atomic.Int64
	var abort atomic.Bool
	const chunk = 16 // subsets per claim: small enough to balance load, large enough to amortize stepping

	// Shared live counters feeding the Progress hook; workers fold their
	// per-chunk deltas in after finishing each chunk, so the monitor's reads
	// are cheap and the hot per-subset loop stays atomics-free. progDone
	// counts this run's processed units only (virtual offsets), starting at
	// zero even on a resumed run.
	var progDone, progEvaluated, progBestServed atomic.Int64
	progEvaluated.Store(baseEvaluated)
	progBestServed.Store(int64(best.served))

	for w := 0; w < opts.Workers; w++ {
		go func() {
			out := workerOut{best: subsetResult{idx: -1, served: -1}}
			defer func() { results <- out }()
			// One oracle per worker, reset per subset, so the matcher's
			// memory is reused across the whole enumeration.
			oracle, err := newPlacementOracle(in, caps)
			if err != nil {
				out.err = err
				return
			}
			src := newSubsetSource(m, s, opts, sampled)
			scr := newEvalScratch(in, q, oracle)
			var bestLocs []int
			for !abort.Load() {
				if ctx.Err() != nil {
					return // drain: claimed chunks are complete, so the prefix stays exact
				}
				vlo := cursor.Add(chunk) - chunk
				if vlo >= stopV {
					return
				}
				vhi := vlo + chunk
				if vhi > stopV {
					vhi = stopV
				}
				chunkEvaluated, chunkPruned := int64(0), int64(0)
				// A chunk of virtual offsets may straddle span boundaries;
				// walk it run by run, mapping each run back to real
				// enumeration indices through the prefix sums. Within a run
				// the source steps incrementally as before.
				si := sort.Search(len(work), func(i int) bool { return prefix[i+1] > vlo })
				for v := vlo; v < vhi; si++ {
					idx := work[si].Start + (v - prefix[si])
					runEnd := vhi
					if prefix[si+1] < runEnd {
						runEnd = prefix[si+1]
					}
					for ; v < runEnd; v, idx = v+1, idx+1 {
						anchors, err := src.at(idx)
						if err != nil {
							out.err = err
							abort.Store(true)
							return
						}
						res, ok, wasPruned, err := evaluateSubset(in, idx, anchors, budget, q, caps, opts, oracle, scr)
						if err != nil {
							out.err = err
							abort.Store(true)
							return
						}
						if wasPruned {
							chunkPruned++
							continue
						}
						chunkEvaluated++
						if ok && res.better(out.best) {
							// res.locs aliases the scratch arena and is
							// overwritten by the next evaluation; copy it into
							// the worker-owned buffer before retaining.
							bestLocs = append(bestLocs[:0], res.locs...)
							res.locs = bestLocs
							out.best = res
						}
					}
				}
				out.pruned += chunkPruned
				out.evaluated += chunkEvaluated
				progDone.Add(vhi - vlo)
				progEvaluated.Add(chunkEvaluated)
				for {
					cur := progBestServed.Load()
					if int64(out.best.served) <= cur || progBestServed.CompareAndSwap(cur, int64(out.best.served)) {
						break
					}
				}
			}
		}()
	}

	stopProgress := MonitorProgress(start, opts, func() Progress {
		scopeDone := progDone.Load()
		evaluated := progEvaluated.Load()
		bestServed := progBestServed.Load()
		if bestServed < 0 {
			bestServed = 0
		}
		done := baseDone + scopeDone
		return Progress{
			Done:       done,
			Total:      scope.Len(),
			Evaluated:  evaluated,
			Pruned:     done - evaluated,
			BestServed: int(bestServed),
			ScopeDone:  scopeDone,
			ScopeTotal: stopV,
		}
	})

	var pruned, evaluated int64
	var evalErr error
	for w := 0; w < opts.Workers; w++ {
		out := <-results
		if out.err != nil && evalErr == nil {
			evalErr = out.err
		}
		pruned += out.pruned
		evaluated += out.evaluated
		if out.best.idx >= 0 && out.best.better(best) {
			best = out.best
		}
	}
	stopProgress()
	if evalErr != nil {
		return nil, evalErr
	}
	evaluated += baseEvaluated
	pruned += basePruned

	// The processed virtual offsets are the exact prefix [0, vFrontier):
	// claims are contiguous and every claimed chunk below stopV was
	// finished. Mapping that prefix back through the work list yields the
	// sub-ranges still unprocessed within the scope.
	vFrontier := cursor.Load()
	if vFrontier > stopV {
		vFrontier = stopV
	}
	rem := consumeUnits(work, vFrontier)

	var status RunStatus
	var cp *Checkpoint
	var runErr error
	switch {
	case len(rem) > 0:
		// Cancelled, deadline-expired, or StopAfter-budgeted before the
		// scope was exhausted — sharded or not.
		status = StatusStopped
		runErr = ctx.Err() // nil when only StopAfter cut the run short
		cp = newCheckpoint(in, s, opts, total, sampled, rem, evaluated, pruned, best)
	case opts.Shard.sharded():
		// The shard's own range is exhausted: emit the partial checkpoint
		// MergeCheckpoints combines. Not an error — the run did all it was
		// asked to.
		status = StatusPartial
		cp = newCheckpoint(in, s, opts, total, sampled, nil, evaluated, pruned, best)
	default:
		status = StatusComplete
	}
	dep, err := assembleDeployment(in, s, opts, sampled, budget, best, evaluated, pruned, status, cp)
	if err != nil {
		return nil, err
	}
	return dep, runErr
}

// effectiveS clamps the requested anchor-subset size to the instance (s is
// never above K or m) and rejects degenerate values; shared by Approx and
// MergeCheckpoints so both agree on the enumeration space.
func effectiveS(s, k, m int) (int, error) {
	if s > k {
		s = k
	}
	if s > m {
		s = m
	}
	if s < 1 {
		return 0, fmt.Errorf("core: cannot run approAlg with s < 1 (m=%d, K=%d)", m, k)
	}
	return s, nil
}

// assembleDeployment builds the returned Deployment from a finished
// reduction. Approx and MergeCheckpoints both end here, which is what makes
// a merged shard result field-for-field identical to the unsharded run's:
// same finalization, same anchor reconstruction, same counters, same
// "no feasible deployment" error on a complete search with no best.
func assembleDeployment(in *Instance, s int, opts Options, sampled bool, budget Budget, best subsetResult, evaluated, pruned int64, status RunStatus, cp *Checkpoint) (*Deployment, error) {
	if best.idx < 0 {
		if status == StatusComplete {
			return nil, fmt.Errorf("core: no feasible deployment: every anchor subset needs more than K=%d UAVs", in.Scenario.K())
		}
		dep := EmptyDeployment(in, "approAlg")
		dep.Budget = budget
		dep.SubsetsEvaluated = evaluated
		dep.SubsetsPruned = pruned
		dep.Status = status
		dep.Checkpoint = cp
		return dep, nil
	}
	dep, err := finalizeDeployment(in, best)
	if err != nil {
		return nil, err
	}
	dep.Algorithm = "approAlg"
	dep.Budget = budget
	if anchors, err := newSubsetSource(in.Scenario.M(), s, opts, sampled).at(best.idx); err == nil {
		dep.Anchors = append([]int(nil), anchors...)
	}
	dep.SubsetsEvaluated = evaluated
	dep.SubsetsPruned = pruned
	dep.Status = status
	dep.Checkpoint = cp
	return dep, nil
}

// EmptyDeployment is the all-grounded placement, tagged with the algorithm
// name, that a stopped run returns when it found no feasible subset before
// the cut.
func EmptyDeployment(in *Instance, algorithm string) *Deployment {
	sc := in.Scenario
	dep := &Deployment{
		Algorithm:  algorithm,
		LocationOf: make([]int, sc.K()),
		Assignment: assign.Assignment{
			UserStation: make([]int, sc.N()),
			PerStation:  make([]int, sc.K()),
		},
	}
	for i := range dep.LocationOf {
		dep.LocationOf[i] = -1
	}
	for i := range dep.Assignment.UserStation {
		dep.Assignment.UserStation[i] = assign.Unassigned
	}
	return dep
}

// evaluateSubset runs the per-subset body of Algorithm 2 (lines 5-23):
// greedy placement of up to L_max UAVs under M1 /\ M2, MST-based relay
// connection, feasibility check q_j <= K, and full evaluation. All working
// memory comes from scr, so the call allocates nothing in steady state; the
// returned res.locs aliases the scratch arena and must be copied by callers
// that retain it past the next evaluation.
func evaluateSubset(in *Instance, idx int64, anchors []int, budget Budget, q []int, caps []int, opts Options, oracle *placementOracle, scr *evalScratch) (res subsetResult, ok, pruned bool, err error) {
	sc := in.Scenario
	k := sc.K()

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
			return res, false, true, nil
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
				return res, false, !opts.DisablePrune, nil
			}
			if d > maxHop {
				maxHop = d
			}
		}
	}
	if !opts.DisablePrune && maxHop+1 > k {
		return res, false, true, nil
	}

	// Hop distances from the anchor set define matroid M2: the element-wise
	// minimum of the anchors' precomputed hop rows, which is the
	// multi-source BFS distance. The scratch's M2 view aliases scr.dist.
	in.Paths.MultiSourceDistInto(anchors, scr.dist)

	// The greedy's ground set is every cell within hmax hops of the anchors;
	// RunHop keeps only the M2-feasible ones on its heap.
	if err := oracle.reset(); err != nil {
		return res, false, false, err
	}
	selected, err := scr.runner.RunHop(scr.order, scr.m2, budget.LMax, oracle)
	if err != nil {
		return res, false, false, err
	}
	if len(selected) == 0 {
		return res, false, false, nil
	}

	// Connect V'_j: MST over the hop metric, then union of shortest paths
	// read from the instance's precomputed path oracle.
	nodes, err := scr.connectLocations(in, selected)
	if err != nil {
		return res, false, false, err
	}
	if len(nodes) > k {
		return res, false, false, nil // q_j > K: infeasible subset (line 16)
	}

	// Deploy remaining UAVs (by decreasing capacity) on relay nodes. nodes
	// is sorted, so the filtered relay list arrives sorted too.
	slotLoc := append(scr.slotLoc[:0], selected...)
	for _, v := range selected {
		scr.selMark[v] = true
	}
	relays := scr.relays[:0]
	for _, v := range nodes {
		if !scr.selMark[v] {
			relays = append(relays, v)
		}
	}
	for _, v := range selected {
		scr.selMark[v] = false
	}
	scr.relays = relays
	slotLoc = append(slotLoc, relays...)

	if !opts.GroundLeftovers {
		slotLoc = scr.extendWithLeftovers(in, slotLoc, caps)
	}
	scr.slotLoc = slotLoc

	// Score the full placement by continuing the greedy's committed
	// matching: the first len(selected) slots are already committed, so only
	// the relay and leftover stations need augmenting. The matching value is
	// independent of commit order, so this equals a from-scratch solve.
	for slot := len(selected); slot < len(slotLoc); slot++ {
		if _, err := oracle.Commit(slot, slotLoc[slot]); err != nil {
			return res, false, false, err
		}
	}
	return subsetResult{idx: idx, served: oracle.served(), locs: slotLoc, nsel: len(selected)}, true, false, nil
}

// finalizeDeployment maps the winning slot placement back to the scenario's
// original UAV order and computes the final assignment (Algorithm 2 line 25).
// On aggregated instances the assignment comes from the weighted b-matcher
// and is expanded to per-user form by solveAggregate; either way the
// returned Assignment is per-user and indexed by original UAV.
func finalizeDeployment(in *Instance, best subsetResult) (*Deployment, error) {
	sc := in.Scenario
	k := sc.K()
	dep := &Deployment{
		LocationOf: make([]int, k),
		Selected:   append([]int(nil), best.locs[:best.nsel]...),
	}
	for i := range dep.LocationOf {
		dep.LocationOf[i] = -1
	}
	p := assign.Problem{
		NumUsers:   sc.N(),
		Capacities: make([]int, len(best.locs)),
		Eligible:   make([][]int, len(best.locs)),
	}
	for r, loc := range best.locs {
		uav := in.ByCapacity[r]
		dep.LocationOf[uav] = loc
		p.Capacities[r] = sc.UAVs[uav].Capacity
		p.Eligible[r] = in.EligibleUsers(uav, loc)
	}
	var a assign.Assignment
	var err error
	if in.Aggregated() {
		a, err = solveAggregate(in, p.Capacities, p.Eligible)
	} else {
		a, err = assign.Solve(p)
	}
	if err != nil {
		return nil, err
	}
	// Re-index the assignment from slots to original UAV indices.
	final := assign.Assignment{
		Served:      a.Served,
		UserStation: make([]int, sc.N()),
		PerStation:  make([]int, k),
	}
	for i, slot := range a.UserStation {
		if slot == assign.Unassigned {
			final.UserStation[i] = assign.Unassigned
			continue
		}
		uav := in.ByCapacity[slot]
		final.UserStation[i] = uav
		final.PerStation[uav]++
	}
	dep.Served = a.Served
	dep.Assignment = final
	return dep, nil
}

// gainEngine is the incremental what-if/commit contract the placement
// oracle drives. match.Matcher (per-user instances) and
// match.WeightedMatcher (aggregated ones) satisfy it.
type gainEngine interface {
	Reset() error
	Served() int
	Gain(capacity int, eligible []int) (int, error)
	Commit(capacity int, eligible []int) (int, error)
}

// placementOracle adapts a gainEngine to the matroid.Oracle interface: the
// marginal gain of placing the round-th largest-capacity UAV at a location
// is the increase in optimally-served users (or, on aggregated instances,
// optimally-served demand units — the same quantity after expansion).
type placementOracle struct {
	in     *Instance
	caps   []int
	engine gainEngine
	// matcher is the engine on per-user instances; it carries the reach
	// bitset RoundBound popcounts.
	matcher *match.Matcher
	// wmatcher is the engine on aggregated instances: the weighted b-matcher
	// over demand cells. Its GainBound is the weighted counterpart of the
	// unit matcher's.
	wmatcher *match.WeightedMatcher
}

func newPlacementOracle(in *Instance, caps []int) (*placementOracle, error) {
	o := &placementOracle{in: in, caps: caps}
	if in.Aggregated() {
		wm, err := match.NewWeightedMatcher(in.Weights, len(caps))
		if err != nil {
			return nil, err
		}
		o.wmatcher = wm
		o.engine = wm
		return o, nil
	}
	m, err := match.NewMatcher(in.Scenario.N(), len(caps))
	if err != nil {
		return nil, err
	}
	o.matcher = m
	o.engine = m
	return o, nil
}

// reset rewinds the oracle for a fresh anchor subset, reusing its memory.
func (o *placementOracle) reset() error { return o.engine.Reset() }

// served returns the users served by the committed placements.
func (o *placementOracle) served() int { return o.engine.Served() }

func (o *placementOracle) eligible(round, loc int) []int {
	uav := o.in.ByCapacity[round]
	return o.in.EligibleUsers(uav, loc)
}

// Gain implements matroid.Oracle.
func (o *placementOracle) Gain(round, loc int) (int, error) {
	return o.engine.Gain(o.caps[round], o.eligible(round, loc))
}

// Commit implements matroid.Oracle.
func (o *placementOracle) Commit(round, loc int) (int, error) {
	return o.engine.Commit(o.caps[round], o.eligible(round, loc))
}

// Bound implements matroid.Bounder: a placement can never serve more users
// than the first-round capacity allows or than are eligible at the location
// (eligible demand weight, on aggregated instances). Both quantities are
// static, so this is a valid initial upper bound for the lazy greedy.
func (o *placementOracle) Bound(loc int) int {
	class := o.in.ClassOf[o.in.ByCapacity[0]]
	n := o.in.eligTotal(class, loc)
	if o.caps[0] < n {
		return o.caps[0]
	}
	return n
}

// RoundBound implements matroid.DynamicBounder: it popcounts the
// location's eligibility mask against the matcher's still-augmentable user
// set, bounding the gain in a few word operations (see
// match.Matcher.GainBound for why that set, not merely the unserved one, is
// the sound choice). Sound bounds of any tightness leave the selection
// identical.
func (o *placementOracle) RoundBound(round, loc int) int {
	class := o.in.ClassOf[o.in.ByCapacity[round]]
	if o.wmatcher != nil {
		return o.wmatcher.GainBound(o.caps[round], o.in.EligMask[class][loc])
	}
	return o.matcher.GainBound(o.caps[round], o.in.EligMask[class][loc])
}
