package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/uav-coverage/uavnet/internal/assign"
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
	// StopAfter, when positive, stops the run at this absolute work count:
	// the enumeration once the claim cursor reaches this enumeration index
	// (counting from the start of the enumeration, including any prefix
	// covered by a resumed checkpoint — under Shard, indices below the
	// shard's range are not counted against the budget since they were never
	// this run's work), a metaheuristic race each member at the first step
	// boundary where its own evaluation count reaches it (see portfolio.Race).
	// The run then returns a StatusStopped deployment carrying a Checkpoint
	// and a nil error, exactly as if the context had been cancelled at that
	// point — a deterministic work budget for incremental sweeps. Zero runs
	// to completion.
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
	// The enumeration takes none (see Validate).
	SolverBudget int64
}

// SolverIsEnum reports whether the options select the exhaustive/sampled
// enumeration (Algorithm 2) rather than a metaheuristic solver.
func (o Options) SolverIsEnum() bool { return o.Solver == "" || o.Solver == "enum" }

// Validate is the one rule set deciding which options a solver accepts;
// Approx, MergeCheckpoints and portfolio.Race call it first, and every front
// door delegates to it. S, MaxSubsets, Workers, StopAfter and SolverBudget
// are non-negative and Shard is well formed; the enumeration takes no
// SolverBudget, and a metaheuristic takes none of the options that shape
// the enumeration's index space or its required-cell filter (StopAfter
// applies to both). Solver names are the dispatcher's to check.
func (o Options) Validate() error {
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"S", int64(o.S)}, {"MaxSubsets", int64(o.MaxSubsets)}, {"Workers", int64(o.Workers)},
		{"StopAfter", o.StopAfter}, {"SolverBudget", o.SolverBudget},
	} {
		if f.v < 0 {
			return fmt.Errorf("core: %s must be non-negative, got %d", f.name, f.v)
		}
	}
	if sh := o.Shard; sh != (ShardSpec{}) && (sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count) {
		return fmt.Errorf("core: Shard %d/%d is malformed: want 0 <= Index < Count", sh.Index, sh.Count)
	}
	if o.SolverIsEnum() {
		if o.SolverBudget != 0 {
			return fmt.Errorf("core: SolverBudget needs a metaheuristic Solver; cap the enumeration with MaxSubsets")
		}
		return nil
	}
	for _, f := range [...]struct {
		name string
		set  bool
	}{
		{"MaxSubsets", o.MaxSubsets != 0}, {"RequiredCells", len(o.RequiredCells) != 0}, {"Shard", o.Shard.sharded()},
	} {
		if f.set {
			return fmt.Errorf("core: %s applies to the enumeration only, not to solver %q", f.name, o.Solver)
		}
	}
	return nil
}

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

// Approx runs Algorithm 2 on the instance and returns the best deployment it
// finds. The returned deployment always satisfies all three constraints of
// Section II-C: per-UAV capacities, per-user minimum rates (by construction
// of the eligibility lists), and connectivity of the deployed network.
//
// Run control: the enumeration honors ctx. On cancellation or deadline,
// each worker finishes only the subset it has claimed, every goroutine and
// the results channel are torn down, and Approx returns the best-so-far
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
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if !opts.SolverIsEnum() {
		return nil, fmt.Errorf("core: Approx runs the enumeration only; solver %q is served by portfolio.Race (use the uavnet facade)", opts.Solver)
	}
	// Each worker scores subsets through its own evaluator, the object each
	// portfolio member scores with, so the steady-state loop allocates
	// nothing.
	evals := make([]*SubsetEvaluator, opts.Workers)
	for w := range evals {
		ev, err := NewSubsetEvaluator(in, opts)
		if err != nil {
			return nil, err
		}
		evals[w] = ev
	}
	m, s, budget := in.Scenario.M(), evals[0].s, evals[0].budget
	total, sampled := subsetSpace(m, s, opts)

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
	best := CheckpointBest{Idx: -1, Served: -1}
	var baseEvaluated, basePruned int64
	if opts.Resume != nil {
		if err := opts.Resume.validate(in, s, opts, total, sampled); err != nil {
			return nil, err
		}
		work = opts.Resume.RemainingSpans()
		baseEvaluated = opts.Resume.Evaluated
		basePruned = opts.Resume.Pruned
		if b := opts.Resume.Best; b != nil {
			best = *b
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

	// Workers claim one virtual offset at a time from a shared cursor and
	// fold local bests. The reduction — most served users, then smallest
	// enumeration index — is associative and order-independent, so the
	// chosen deployment never depends on the worker count or on how claims
	// interleave.
	//
	// The context is checked before every claim, and a claimed subset is
	// always finished. That bounds the drain latency by one evaluation per
	// worker and makes the processed offsets the exact contiguous prefix
	// [0, min(cursor, stopV)) of the work list, which is what lets a
	// checkpoint record a cursor (plus the work list's holes, if any)
	// instead of a bitmap.
	//
	// done, evaluated and bestServed are the run's counters and the Progress
	// hook's source. done and evaluated count this run's processed and
	// scored subsets only, starting at zero even on a resumed run; a worker
	// counts a subset done before it counts it evaluated.
	type workerOut struct {
		best CheckpointBest
		err  error
	}
	results := make(chan workerOut, len(evals))
	var cursor, done, evaluated, bestServed atomic.Int64
	var abort atomic.Bool
	bestServed.Store(int64(best.Served))

	for _, ev := range evals {
		go func() {
			out := workerOut{best: CheckpointBest{Idx: -1, Served: -1}}
			defer func() { results <- out }()
			src := newSubsetSource(m, s, opts, sampled)
			var bestLocs []int
			si := 0 // the work span holding the claimed offset; a worker's claims ascend
			for !abort.Load() && ctx.Err() == nil {
				v := cursor.Add(1) - 1
				if v >= stopV {
					return
				}
				for prefix[si+1] <= v {
					si++
				}
				idx := work[si].Start + (v - prefix[si])
				anchors, err := src.at(idx)
				var res EvalResult
				var pruned bool
				if err == nil {
					res, pruned, err = ev.evaluate(anchors)
				}
				if err != nil {
					out.err = err
					abort.Store(true)
					return
				}
				done.Add(1)
				if pruned {
					continue
				}
				evaluated.Add(1)
				if cand := (CheckpointBest{Idx: idx, Served: res.Served}); !res.Feasible || !cand.better(out.best) {
					continue
				}
				// res.Locs aliases a buffer of the evaluator and is overwritten
				// by the next evaluation; keep a copy in the worker's buffer.
				bestLocs = append(bestLocs[:0], res.Locs...)
				out.best = CheckpointBest{Idx: idx, Served: res.Served, Locs: bestLocs, NSel: res.NSel}
				for {
					cur := bestServed.Load()
					if int64(res.Served) <= cur || bestServed.CompareAndSwap(cur, int64(res.Served)) {
						break
					}
				}
			}
		}()
	}

	stopProgress := MonitorProgress(start, opts, func() Progress {
		// evaluated first: every subset it counts is already counted done,
		// so Pruned never reads negative.
		p := Progress{Evaluated: baseEvaluated + evaluated.Load(), Total: scope.Len(), ScopeTotal: stopV}
		p.ScopeDone = done.Load()
		p.Done = baseDone + p.ScopeDone
		p.Pruned = p.Done - p.Evaluated
		p.BestServed = int(max(bestServed.Load(), 0))
		return p
	})

	var evalErr error
	for range evals {
		out := <-results
		if out.err != nil && evalErr == nil {
			evalErr = out.err
		}
		if out.best.better(best) {
			best = out.best
		}
	}
	stopProgress()
	if evalErr != nil {
		return nil, evalErr
	}
	evaluatedAll := baseEvaluated + evaluated.Load()
	prunedAll := basePruned + done.Load() - evaluated.Load()

	// The processed virtual offsets are the exact prefix [0, vFrontier):
	// claims are contiguous and every claimed offset below stopV was
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
		cp = newCheckpoint(in, s, opts, total, sampled, rem, evaluatedAll, prunedAll, best)
	case opts.Shard.sharded():
		// The shard's own range is exhausted: emit the partial checkpoint
		// MergeCheckpoints combines. Not an error — the run did all it was
		// asked to.
		status = StatusPartial
		cp = newCheckpoint(in, s, opts, total, sampled, nil, evaluatedAll, prunedAll, best)
	default:
		status = StatusComplete
	}
	dep, err := assembleDeployment(in, s, opts, sampled, budget, best, evaluatedAll, prunedAll, status, cp)
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
func assembleDeployment(in *Instance, s int, opts Options, sampled bool, budget Budget, best CheckpointBest, evaluated, pruned int64, status RunStatus, cp *Checkpoint) (*Deployment, error) {
	var dep *Deployment
	switch {
	case best.Idx >= 0:
		var err error
		if dep, err = finalizeDeployment(in, best.Locs, best.NSel); err != nil {
			return nil, err
		}
		dep.Algorithm = "approAlg"
		if anchors, err := newSubsetSource(in.Scenario.M(), s, opts, sampled).at(best.Idx); err == nil {
			dep.Anchors = append([]int(nil), anchors...)
		}
	case status == StatusComplete:
		return nil, fmt.Errorf("core: no feasible deployment: every anchor subset needs more than K=%d UAVs", in.Scenario.K())
	default:
		dep = EmptyDeployment(in, "approAlg")
	}
	dep.Budget = budget
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

// finalizeDeployment maps a winning slot placement — locs[r] is the cell of
// the r-th largest-capacity UAV, the first nsel chosen by the greedy phase —
// back to the scenario's original UAV order and computes the final
// assignment (Algorithm 2 line 25).
func finalizeDeployment(in *Instance, locs []int, nsel int) (*Deployment, error) {
	a, err := assignPlacement(in, in.ByCapacity[:len(locs)], locs)
	if err != nil {
		return nil, err
	}
	dep := &Deployment{
		LocationOf: make([]int, in.Scenario.K()),
		Selected:   append([]int(nil), locs[:nsel]...),
		Served:     a.Served,
		Assignment: a,
	}
	for i := range dep.LocationOf {
		dep.LocationOf[i] = -1
	}
	for r, loc := range locs {
		dep.LocationOf[in.ByCapacity[r]] = loc
	}
	return dep, nil
}
