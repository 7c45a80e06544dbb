// Command uavdeploy runs a deployment algorithm on a scenario and prints
// the resulting placement, per-UAV loads, and summary statistics.
//
// Usage:
//
//	uavdeploy -scenario scenario.json                 # approAlg, s = 3
//	uavdeploy -scenario scenario.json -alg MCS        # one baseline
//	uavdeploy -scenario scenario.json -alg all        # compare everything
//	uavdeploy -n 500 -k 8 -seed 3                     # generate inline
//	uavdeploy -scenario big.json -agg-cell 250        # demand-aggregated solve
//
// -agg-cell S coarsens the users into weighted demand cells with side S
// meters before solving (approAlg only): subset evaluation then scales with
// occupied cells instead of users, which is what makes million-user
// scenarios tractable. The printed deployment and -verify both remain
// per-user. Checkpoints taken under -agg-cell are keyed on the aggregate
// fingerprint (see uavgen -agg-cell) and refuse to resume under a different
// cell side or the per-user path.
//
// Run control (approAlg, enumeration or -solver):
//
//	uavdeploy -scenario big.json -timeout 30s -checkpoint run.ckpt
//	uavdeploy -scenario big.json -stop-after 5000 -checkpoint run.ckpt
//	uavdeploy -scenario big.json -resume run.ckpt     # continue to completion
//	uavdeploy -scenario big.json -progress 2s         # periodic status lines
//
// A run cut by SIGINT, -timeout or -stop-after prints its best-so-far
// deployment, writes the -checkpoint file if one was given, and exits
// non-zero; resuming from that checkpoint produces the same deployment as an
// uninterrupted run. -stop-after N cuts at a fixed point: the enumeration at
// enumeration index N, a -solver race each member once its own evaluation
// count reaches N.
//
// -workers N evaluates anchor subsets on N goroutines; the deployment is
// byte-identical for every worker count.
//
// Sharding splits the approAlg enumeration across processes or machines
// (DESIGN.md §13):
//
//	uavdeploy -scenario sc.json -shard 0/2 -checkpoint part0.ckpt
//	uavdeploy -scenario sc.json -shard 1/2 -checkpoint part1.ckpt
//	uavdeploy -scenario sc.json -resume part0.ckpt,part1.ckpt -out dep.json
//
// -shard i/N solves the i-th of N contiguous ranges of the anchor-subset
// index space and writes its partial checkpoint to -checkpoint whether it
// finishes or is cut; a cut shard continues with the same -shard and
// -resume. A comma-separated -resume merges shard checkpoints: a complete
// set is the deployment, byte-identical to a single-process run, and an
// incomplete set resumes from the merged state and finishes the missing
// ranges in this process. The flags that shape the enumeration (-s,
// -max-subsets, -seed, -literal, -agg-cell) must agree across the shards
// and the merge: the checkpoints carry them, and a mismatch, a duplicate
// shard, a gap or an overlap is refused.
//
// -seed seeds the -max-subsets sample and the -solver RNGs as well as an
// inline scenario; a resume takes its checkpoint's seed.
//
// Large m (metaheuristic portfolio):
//
//	uavdeploy -scenario huge.json -solver portfolio     # race all four members
//	uavdeploy -scenario huge.json -solver anneal -budget 200000
//
// When C(m,s) makes the enumeration hopeless, -solver replaces it with a
// budgeted local search (anneal | tabu | grasp | genetic | portfolio = race
// all four). -budget caps the anchor-subset evaluations per member (0 = a
// sensible default); same seed + same budget reproduces the deployment
// byte-for-byte. -timeout/-stop-after/-checkpoint/-resume work as for the
// enumeration: the checkpoint file is the same format, tagged "portfolio",
// and freezes every member's search state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "uavdeploy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("uavdeploy", flag.ExitOnError)
	var (
		scenarioPath = fs.String("scenario", "", "scenario JSON (from uavgen); empty generates one")
		alg          = fs.String("alg", "approAlg", `algorithm: approAlg | MCS | MotionCtrl | GreedyAssign | maxThroughput | all`)
		s            = fs.Int("s", 3, "approAlg anchor parameter s")
		workers      = fs.Int("workers", 0, "approAlg worker goroutines (0 = all cores)")
		maxSubsets   = fs.Int("max-subsets", 0, "approAlg anchor-subset cap (0 = exhaustive)")
		solver       = fs.String("solver", "enum", "anchor-subset solver: enum | anneal | tabu | grasp | genetic | portfolio (race all four)")
		budget       = fs.Int64("budget", 0, "evaluations per solver member for -solver (0 = default; the enumeration takes none)")
		n            = fs.Int("n", 500, "users when generating inline")
		k            = fs.Int("k", 8, "UAVs when generating inline")
		seed         = fs.Int64("seed", 1, "seed when generating inline; also seeds the -max-subsets sample and the -solver RNGs (a resume takes its checkpoint's)")
		showMap      = fs.Bool("map", true, "print the ASCII placement map")
		literal      = fs.Bool("literal", false, "run approAlg exactly as the paper's pseudocode (ground leftover UAVs)")
		refine       = fs.Bool("refine", false, "refine the assignment to minimize total pathloss")
		gatewayAt    = fs.String("gateway", "", "gateway position as \"x,y\" meters; builds a relay chain to it")
		verifyDep    = fs.Bool("verify", false, "run the feasibility oracle on every deployment; exit non-zero on violations")
		timeout      = fs.Duration("timeout", 0, "abort the run after this long, keeping the best-so-far deployment (0 = none)")
		stopAfter    = fs.Int64("stop-after", 0, "stop at this work count, keeping the best-so-far deployment: an enumeration index, or each -solver member's evaluations (0 = none)")
		progressIntv = fs.Duration("progress", 0, "print approAlg progress to stderr at this interval (0 = off)")
		shardStr     = fs.String("shard", "", "solve shard \"i/N\" (0-based) of the approAlg enumeration; needs -checkpoint")
		ckptPath     = fs.String("checkpoint", "", "write a resumable checkpoint here when the run is stopped early, and a -shard run's partial checkpoint always")
		resumeList   = fs.String("resume", "", "resume an approAlg run (enumeration or -solver) from this checkpoint file; a comma-separated list of shard checkpoints is merged and finished")
		aggCell      = fs.Float64("agg-cell", 0, "aggregate users into weighted demand cells with this side in meters before solving (approAlg only; 0 = per-user)")
		outPath      = fs.String("out", "", "write the final deployment as JSON here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every flag is checked before the scenario is read or generated.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments after flags: %v", fs.Args())
	}
	if *timeout < 0 || *progressIntv < 0 {
		return fmt.Errorf("-timeout and -progress must be non-negative, got %v and %v", *timeout, *progressIntv)
	}
	names := []string{*alg}
	if *alg == "all" {
		names = uavnet.AlgorithmNames()
	} else if !slices.Contains(uavnet.AlgorithmNames(), *alg) {
		return fmt.Errorf("unknown -alg %q: want all or one of %v", *alg, uavnet.AlgorithmNames())
	}
	var gw uavnet.Gateway
	if *gatewayAt != "" {
		var err error
		if gw, err = parseGateway(*gatewayAt); err != nil {
			return err
		}
	}
	var resumePaths []string
	if *resumeList != "" {
		resumePaths = strings.Split(*resumeList, ",")
		if slices.Contains(resumePaths, "") {
			return fmt.Errorf("bad -resume %q: empty file name in the list", *resumeList)
		}
	}

	opts := uavnet.Options{
		S: *s, Workers: *workers, MaxSubsets: *maxSubsets, GroundLeftovers: *literal,
		Solver: *solver, SolverBudget: *budget, StopAfter: *stopAfter, Seed: *seed,
	}
	if opts.SolverIsEnum() && opts.MaxSubsets == 0 {
		// An exhaustive enumeration draws nothing at random: seed 0 keeps its
		// checkpoints the same whichever -seed generated the scenario.
		opts.Seed = 0
	}
	if !opts.SolverIsEnum() && *alg != "approAlg" {
		return fmt.Errorf("-solver replaces the approAlg enumeration; it needs -alg approAlg")
	}
	if *shardStr != "" || len(resumePaths) > 1 {
		door := "-shard"
		if *shardStr == "" {
			door = "a several-file -resume"
		}
		// Shards split the approAlg enumeration's index space and nothing
		// else; the merge rebuilds exactly that run.
		switch {
		case *alg != "approAlg":
			return fmt.Errorf("%s splits the approAlg enumeration; it needs -alg approAlg, not %s", door, *alg)
		case *gatewayAt != "":
			return fmt.Errorf("%s splits the approAlg enumeration; it does not take -gateway", door)
		case !opts.SolverIsEnum():
			return fmt.Errorf("%s splits the approAlg enumeration; it does not take -solver %s", door, *solver)
		}
	}
	if *shardStr != "" {
		var err error
		if opts.Shard, err = parseShard(*shardStr); err != nil {
			return err
		}
		switch {
		case *ckptPath == "":
			return fmt.Errorf("-shard needs -checkpoint: the shard's partial checkpoint is its result")
		case len(resumePaths) > 1:
			return fmt.Errorf("-shard resumes one shard's own checkpoint; merge several without -shard")
		}
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	aggOpts := uavnet.AggregateOptions{CellSide: *aggCell}
	if err := aggOpts.Validate(); err != nil {
		return err
	}
	if *aggCell != 0 {
		for _, name := range names {
			if name != "approAlg" {
				return fmt.Errorf("-agg-cell supports only approAlg; %s needs a per-user instance", name)
			}
		}
		if *refine {
			return fmt.Errorf("-agg-cell and -refine are incompatible: pathloss refinement needs a per-user instance")
		}
	}

	// SIGINT stops the solver gracefully: workers drain, the best-so-far
	// deployment is reported, and -checkpoint captures the frontier.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var sc *uavnet.Scenario
	var err error
	if *scenarioPath != "" {
		sc, err = uavnet.LoadScenario(*scenarioPath)
	} else {
		sc, err = uavnet.GenerateScenario(uavnet.ScenarioSpec{N: *n, K: *k, Seed: *seed})
	}
	if err != nil {
		return err
	}
	var in *uavnet.Instance
	if *aggCell != 0 {
		in, err = uavnet.NewAggregateInstance(sc, aggOpts)
	} else {
		in, err = uavnet.NewInstance(sc)
	}
	if err != nil {
		return err
	}
	fmt.Printf("scenario: %d users, %d UAVs, %d cells, area %.0fx%.0f m\n",
		sc.N(), sc.K(), sc.M(), sc.Grid.Length, sc.Grid.Width)
	if dem := in.Demand; dem != nil {
		fmt.Printf("aggregated: %d demand cells (side %g m), fingerprint %016x\n",
			len(dem.Cells), dem.Grid.Side, in.Fingerprint())
	}
	fmt.Println()
	if *progressIntv > 0 {
		opts.ProgressInterval = *progressIntv
		opts.Progress = printProgress
	}
	// merged is the deployment of a complete set of shard checkpoints,
	// which leaves nothing to solve.
	var merged *uavnet.Deployment
	if len(resumePaths) > 0 {
		cps := make([]*uavnet.Checkpoint, len(resumePaths))
		for i, p := range resumePaths {
			if cps[i], err = uavnet.LoadCheckpoint(p); err != nil {
				return err
			}
		}
		if opts.SolverIsEnum() {
			opts.Seed = cps[0].Seed
		}
		cp := cps[0]
		if len(cps) > 1 {
			dep, err := uavnet.MergeCheckpoints(in, opts, cps)
			if err != nil {
				return err
			}
			if dep.Status != uavnet.StatusStopped {
				merged = dep
			}
			cp = dep.Checkpoint
		}
		if merged != nil {
			fmt.Printf("merged %d shard checkpoints: every subset is done\n", len(cps))
		} else {
			opts.Resume = cp
			done, total := cp.Frontier()
			fmt.Printf("resuming %s checkpoint %s at %d / %d\n", cp.Algorithm, *resumeList, done, total)
		}
	}

	var stopped error
	for _, name := range names {
		start := time.Now()
		dep, runErr := merged, error(nil)
		switch {
		case merged != nil: // nothing left to solve
		case *gatewayAt != "" && name == "approAlg":
			// approAlg plans the gateway in: its cells become required anchors.
			dep, runErr = uavnet.DeployToGatewayContext(ctx, in, gw, opts)
		default:
			dep, runErr = uavnet.DeployWithContext(ctx, name, in, opts)
		}
		if runErr != nil && dep == nil {
			return fmt.Errorf("%s: %w", name, runErr)
		}
		// A stopped run and a finished shard carry a checkpoint, which a
		// refined deployment does not.
		status, cp := dep.Status, dep.Checkpoint
		if cp != nil && *ckptPath != "" {
			if err := uavnet.SaveCheckpoint(*ckptPath, cp); err != nil {
				return fmt.Errorf("%s: checkpoint: %w", name, err)
			}
		}
		if *gatewayAt != "" && name != "approAlg" {
			// Baselines are gateway-oblivious; retrofit a relay chain.
			var err error
			if dep, err = uavnet.ConnectToGateway(in, dep, gw); err != nil {
				return fmt.Errorf("%s: gateway: %w", name, err)
			}
		}
		if *refine && status != uavnet.StatusStopped {
			refined, totalPL, err := uavnet.RefineAssignment(in, dep)
			if err != nil {
				return fmt.Errorf("%s: refine: %w", name, err)
			}
			fmt.Printf("refined total pathloss: %.1f dB across %d links\n",
				float64(totalPL)/1000, refined.Served)
			dep = refined
		}
		elapsed := time.Since(start)
		report(in, dep, elapsed, *showMap)
		switch status {
		case uavnet.StatusPartial:
			r := cp.Range()
			fmt.Printf("shard %s done: subsets [%d, %d) of %d; partial checkpoint written to %s\n\n",
				*shardStr, r.Start, r.End, cp.Total, *ckptPath)
		case uavnet.StatusStopped:
			why := fmt.Sprintf("-stop-after %d", *stopAfter)
			if runErr != nil {
				why = runErr.Error() // SIGINT or -timeout
			}
			msg := fmt.Sprintf("run stopped (%s); pass -checkpoint to make it resumable", why)
			if *ckptPath != "" {
				done, total := cp.Frontier()
				msg = fmt.Sprintf("run stopped at %d / %d (%s); continue with -resume %s", done, total, why, *ckptPath)
			}
			fmt.Printf("%s\n\n", msg)
			stopped = errors.Join(stopped, fmt.Errorf("%s: %s", name, msg))
		}
		if *verifyDep && dep.Served > 0 {
			rep := uavnet.Verify(in, dep)
			if !rep.OK() {
				return fmt.Errorf("%s: verification failed: %s", name, rep)
			}
			fmt.Printf("verification:   ok (capacity, min-rate, connectivity, matroids, bookkeeping)\n\n")
		}
		if *outPath != "" {
			if err := uavnet.SaveDeployment(*outPath, dep); err != nil {
				return fmt.Errorf("%s: out: %w", name, err)
			}
		}
	}
	return stopped
}

// printProgress renders one Options.Progress snapshot to stderr.
func printProgress(p uavnet.RunProgress) {
	eta := "?"
	if p.ETA > 0 {
		eta = p.ETA.Round(time.Second).String()
	}
	fmt.Fprintf(os.Stderr, "progress: %d / %d subsets (%.1f%%), %d evaluated, %d pruned, best %d served, elapsed %s, eta %s\n",
		p.Done, p.Total, 100*float64(p.Done)/float64(max(p.Total, 1)),
		p.Evaluated, p.Pruned, p.BestServed, p.Elapsed.Round(time.Second), eta)
}

// isSolverAlg reports whether the deployment came from the metaheuristic
// portfolio: a member's name when a single member ran, "portfolio/<member>"
// naming the race's winner, or "portfolio" for a race stopped before any
// member found a feasible subset. Enumeration deployments are named
// "approAlg", never "enum".
func isSolverAlg(name string) bool {
	solver, _, _ := strings.Cut(name, "/")
	return slices.Contains(uavnet.SolverNames(), solver)
}

// parseShard parses "i/N" strictly.
func parseShard(s string) (uavnet.ShardSpec, error) {
	is, ns, ok := strings.Cut(s, "/")
	if ok {
		i, err1 := strconv.Atoi(is)
		n, err2 := strconv.Atoi(ns)
		if err1 == nil && err2 == nil && n >= 1 && i >= 0 && i < n {
			return uavnet.ShardSpec{Index: i, Count: n}, nil
		}
	}
	return uavnet.ShardSpec{}, fmt.Errorf("bad -shard %q (want \"i/N\" with 0 <= i < N)", s)
}

// parseGateway parses an "x,y" position in meters: two finite numbers
// around one comma, spaces allowed.
func parseGateway(s string) (uavnet.Gateway, error) {
	xs, ys, _ := strings.Cut(s, ",")
	x, errX := strconv.ParseFloat(strings.TrimSpace(xs), 64)
	y, errY := strconv.ParseFloat(strings.TrimSpace(ys), 64)
	if errX != nil || errY != nil || math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
		return uavnet.Gateway{}, fmt.Errorf("bad -gateway %q (want \"x,y\": two finite numbers of meters)", s)
	}
	return uavnet.Gateway{Pos: uavnet.Point{X: x, Y: y}}, nil
}

func report(in *uavnet.Instance, dep *uavnet.Deployment, elapsed time.Duration, showMap bool) {
	sc := in.Scenario
	fmt.Printf("=== %s ===\n", dep.Algorithm)
	fmt.Printf("served users:   %d / %d (%.1f%%)\n",
		dep.Served, sc.N(), 100*float64(dep.Served)/float64(max(sc.N(), 1)))
	fmt.Printf("deployed UAVs:  %d / %d\n", dep.DeployedCount(), sc.K())
	fmt.Printf("connected:      %v\n", uavnet.Connected(in, dep))
	fmt.Printf("elapsed:        %s\n", elapsed.Round(time.Millisecond))
	switch {
	case dep.Algorithm == "approAlg":
		fmt.Printf("budget:         L_max=%d s=%d (ratio %.3f)\n",
			dep.Budget.LMax, dep.Budget.S, uavnet.ApproxRatio(sc.K(), dep.Budget.S))
		fmt.Printf("subsets:        %d evaluated, %d pruned\n",
			dep.SubsetsEvaluated, dep.SubsetsPruned)
	case isSolverAlg(dep.Algorithm):
		fmt.Printf("budget:         L_max=%d s=%d\n", dep.Budget.LMax, dep.Budget.S)
		fmt.Printf("evaluations:    %d (metaheuristic search; no enumeration)\n",
			dep.SubsetsEvaluated)
	}
	fmt.Println("per-UAV load (capacity):")
	for uav, loc := range dep.LocationOf {
		if loc < 0 {
			fmt.Printf("  UAV %-2d  grounded                 (cap %d)\n", uav, sc.UAVs[uav].Capacity)
			continue
		}
		col, row := sc.Grid.CellAt(loc)
		fmt.Printf("  UAV %-2d  cell (%d,%d)  serves %-4d (cap %d)\n",
			uav, col, row, dep.Assignment.PerStation[uav], sc.UAVs[uav].Capacity)
	}
	if showMap {
		fmt.Println(asciiMap(in, dep))
	}
	fmt.Println()
}

// asciiMap draws the grid: '.' empty cell, digits = user density decile,
// '#' a cell with a deployed UAV.
func asciiMap(in *uavnet.Instance, dep *uavnet.Deployment) string {
	sc := in.Scenario
	cols, rows := sc.Grid.Cols(), sc.Grid.Rows()
	counts := make([]int, sc.M())
	maxCount := 1
	for _, u := range sc.Users {
		c := sc.Grid.CellOf(u.Pos)
		counts[c]++
		if counts[c] > maxCount {
			maxCount = counts[c]
		}
	}
	hasUAV := make([]bool, sc.M())
	for _, loc := range dep.LocationOf {
		if loc >= 0 {
			hasUAV[loc] = true
		}
	}
	var b strings.Builder
	b.WriteString("map (rows top-down, # = UAV, digit = user density 0-9):\n")
	for row := rows - 1; row >= 0; row-- {
		b.WriteString("  ")
		for col := 0; col < cols; col++ {
			cell := sc.Grid.CellIndex(col, row)
			switch {
			case hasUAV[cell]:
				b.WriteByte('#')
			case counts[cell] == 0:
				b.WriteByte('.')
			default:
				d := counts[cell] * 9 / maxCount
				b.WriteByte(byte('0' + d))
			}
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}
