package portfolio

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uav-coverage/uavnet/internal/core"
)

// DefaultBudget is the per-member evaluation budget when Options.SolverBudget
// is zero. At the ~µs-per-evaluation cost of the incremental pipeline this is
// tenths of a second per member — and, unlike enumeration, independent of m.
const DefaultBudget = 50_000

// SolverMembers resolves an Options.Solver value to the member names it
// races: one name for a single member, all four for "portfolio".
func SolverMembers(solver string) ([]string, error) {
	if solver == "portfolio" {
		return Members(), nil
	}
	if memberIndex(solver) >= 0 {
		return []string{solver}, nil
	}
	return nil, fmt.Errorf("portfolio: unknown solver %q (have %v and \"portfolio\")", solver, Members())
}

// newSolver builds one member by canonical name.
func newSolver(name string, p *problem, ev *core.SubsetEvaluator, seed, budget int64) (Solver, error) {
	s := newSearch(name, p, ev, seed, budget)
	switch name {
	case "anneal":
		return newAnneal(s), nil
	case "tabu":
		return newTabu(s), nil
	case "grasp":
		return newGrasp(s), nil
	case "genetic":
		return newGenetic(s), nil
	}
	return nil, fmt.Errorf("portfolio: unknown member %q", name)
}

// Race runs the metaheuristic members named by opts.Solver concurrently over
// the instance, each under its own evaluation budget, and returns the best
// deployment any member found — finalized through the exact Algorithm 2
// pipeline, so it satisfies every constraint verify.CheckDeployment checks.
//
// Run control is core.Approx's: the race honors ctx (members stop at the
// next step boundary), reports core.Progress snapshots through opts.Progress,
// and a cancelled run returns its best-so-far deployment with Status
// StatusStopped and a resumable Checkpoint (kind core.KindPortfolio)
// TOGETHER with ctx.Err(); a race stopped before any member found a feasible
// subset returns the all-grounded deployment with the checkpoint. A member
// stops at the first step boundary where its own evaluation count reaches
// opts.StopAfter (a tabu step is never split, so it may pass by up to
// tabuWidth-1), and a race so cut stops the same way with a nil error; a
// member whose budget ends first completes. Resuming through opts.Resume
// continues every member's exact trajectory, so an interrupted-then-resumed
// race is byte-identical to an uninterrupted one.
// The reduction is deterministic: most served users, ties to the canonical
// member order — never arrival order or wall clock.
//
// The options are checked by core.Options.Validate first, which refuses
// the enumeration-only ones (MaxSubsets, RequiredCells, Shard).
func Race(ctx context.Context, in *core.Instance, opts core.Options) (*core.Deployment, error) {
	if ctx == nil {
		ctx = context.Background() //uavlint:allow ctxthread -- nil-ctx normalization at the API boundary
	}
	start := time.Now() //uavlint:allow timenow -- progress/ETA clock; never feeds a solver decision
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.SolverIsEnum() {
		return nil, fmt.Errorf("portfolio: Options.Solver %q selects the enumeration; call core.Approx", opts.Solver)
	}
	members, err := SolverMembers(opts.Solver)
	if err != nil {
		return nil, err
	}
	budget := opts.SolverBudget
	if budget == 0 {
		budget = DefaultBudget
	}

	// One evaluator per member (they are single-goroutine objects); the
	// problem view is read-only and shared.
	evs := make([]*core.SubsetEvaluator, len(members))
	for i := range members {
		if evs[i], err = core.NewSubsetEvaluator(in, opts); err != nil {
			return nil, err
		}
	}
	s := evs[0].S()
	p, err := newProblem(in, s)
	if err != nil {
		return nil, err
	}
	solvers := make([]Solver, len(members))
	for i, name := range members {
		if solvers[i], err = newSolver(name, p, evs[i], opts.Seed, budget); err != nil {
			return nil, err
		}
	}
	resume := opts.Resume
	if resume != nil {
		if err := validateResume(resume, in, s, opts, budget, members); err != nil {
			return nil, err
		}
		for i := range solvers {
			if err := solvers[i].Restore(resume.Members[i]); err != nil {
				return nil, err
			}
		}
	}

	// limit is where StopAfter cuts a member. base counts the evaluations a
	// resumed checkpoint spent, scope this run's work up to the cut.
	limit, base, scope := budget, int64(0), int64(0)
	if opts.StopAfter > 0 {
		limit = min(budget, opts.StopAfter)
	}
	for _, ev := range evs {
		base += ev.Evaluations()
		scope += max(limit-ev.Evaluations(), 0)
	}

	// Members race on their own goroutines, folding this run's per-step
	// deltas into the shared progress counters. Determinism needs no
	// synchronization beyond that: every member depends only on its own state.
	var progEvals, progBest atomic.Int64
	progBest.Store(-1)
	// Seed the best from the restored members: a race resumed at its
	// StopAfter cut takes no step, yet its deployment serves their best.
	for _, sv := range solvers {
		if _, served := sv.Best(); int64(served) > progBest.Load() {
			progBest.Store(int64(served))
		}
	}
	type memberOut struct {
		done bool // budget exhausted (vs. stopped by ctx or StopAfter)
		err  error
	}
	outs := make([]memberOut, len(solvers))
	var wg sync.WaitGroup
	for i := range solvers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sv, ev := solvers[i], evs[i]
			last := ev.Evaluations()
			// The cut reads only the member's own count, at a step boundary;
			// a member whose budget is spent steps once more to finish.
			for ctx.Err() == nil && (last < limit || last >= budget) {
				more, err := sv.Step()
				if err != nil {
					outs[i].err = err
					return
				}
				if e := ev.Evaluations(); e != last {
					progEvals.Add(e - last)
					last = e
				}
				if _, served := sv.Best(); served >= 0 {
					for {
						cur := progBest.Load()
						if int64(served) <= cur || progBest.CompareAndSwap(cur, int64(served)) {
							break
						}
					}
				}
				if !more {
					outs[i].done = true
					return
				}
			}
		}(i)
	}

	stopProgress := core.MonitorProgress(start, opts, func() core.Progress {
		evals := progEvals.Load()
		return core.Progress{
			Done:       base + evals,
			Total:      int64(len(members)) * budget,
			Evaluated:  base + evals,
			BestServed: int(max(progBest.Load(), 0)),
			ScopeDone:  evals,
			ScopeTotal: scope,
		}
	})
	wg.Wait()
	stopProgress()
	stopped := false
	for _, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
		stopped = stopped || !out.done
	}

	// Freeze member states BEFORE finalization: BuildDeployment re-runs one
	// evaluation on the winner's evaluator, which must not leak into the
	// checkpointed budget accounting.
	var cp *core.Checkpoint
	if stopped {
		cp = core.CommonCheckpoint(core.KindPortfolio, in, s, opts)
		cp.Solver, cp.Budget = opts.Solver, budget
		cp.Members = make([]core.SolverState, len(solvers))
		for i, sv := range solvers {
			if cp.Members[i], err = sv.State(); err != nil {
				return nil, err
			}
		}
	}

	// Deterministic reduction: most served, ties to canonical member order.
	winner := -1
	winServed := -1
	for i, sv := range solvers {
		if _, served := sv.Best(); served > winServed {
			winner, winServed = i, served
		}
	}
	var dep *core.Deployment
	switch {
	case winner >= 0:
		anchors, _ := solvers[winner].Best()
		if dep, err = evs[winner].BuildDeployment(anchors); err != nil {
			return nil, err
		}
		dep.Algorithm = members[winner]
		if len(members) > 1 {
			dep.Algorithm = "portfolio/" + members[winner]
		}
	case stopped:
		dep = core.EmptyDeployment(in, opts.Solver)
		dep.Budget = evs[0].Budget()
	default:
		return nil, fmt.Errorf("portfolio: no feasible deployment within a budget of %d evaluations per member", budget)
	}
	dep.SubsetsEvaluated = base + progEvals.Load()
	dep.Status = core.StatusComplete
	if stopped {
		dep.Status = core.StatusStopped
		dep.Checkpoint = cp
		return dep, ctx.Err()
	}
	return dep, nil
}

// validateResume rejects a checkpoint that was not produced by an identical
// race: the kind, the scenario and shared options (core.ValidateCommon), the
// solver and budget, the member lineup and in-range member counts.
func validateResume(c *core.Checkpoint, in *core.Instance, s int, opts core.Options, budget int64, members []string) error {
	if err := c.ValidateCommon(core.KindPortfolio, in, s, opts); err != nil {
		return err
	}
	if opts.Solver != c.Solver {
		return c.Mismatch("solver", opts.Solver, c.Solver)
	}
	if budget != c.Budget {
		return c.Mismatch("solver budget", budget, c.Budget)
	}
	if len(c.Members) != len(members) {
		return c.Mismatch("member count", len(members), len(c.Members))
	}
	for i, name := range members {
		if c.Members[i].Name != name {
			return c.Mismatch("member", name, c.Members[i].Name)
		}
		if st := c.Members[i]; st.Steps < 0 || st.Evals < 0 || st.Evals > budget {
			return fmt.Errorf("portfolio: checkpoint member %q has %d steps and %d evaluations; want non-negative counts within the %d budget", name, st.Steps, st.Evals, budget)
		}
	}
	return nil
}
