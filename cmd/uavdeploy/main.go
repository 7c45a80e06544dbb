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
//	uavdeploy -scenario big.json -resume run.ckpt     # continue to completion
//	uavdeploy -scenario big.json -progress 2s         # periodic status lines
//
// A run interrupted by SIGINT or -timeout prints its best-so-far deployment,
// writes the -checkpoint file if one was given, and exits non-zero; resuming
// from that checkpoint produces the same deployment as an uninterrupted run.
//
// -workers N evaluates anchor subsets on N goroutines; the deployment is
// byte-identical for every worker count. To split the enumeration across
// processes or machines, see cmd/uavshard.
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
// byte-for-byte. -timeout/-checkpoint/-resume work as for the enumeration:
// the checkpoint file is the same format, tagged "portfolio", and freezes
// every member's search state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
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
		seed         = fs.Int64("seed", 1, "seed when generating inline; also drives the -solver RNGs")
		showMap      = fs.Bool("map", true, "print the ASCII placement map")
		literal      = fs.Bool("literal", false, "run approAlg exactly as the paper's pseudocode (ground leftover UAVs)")
		refine       = fs.Bool("refine", false, "refine the assignment to minimize total pathloss")
		gatewayAt    = fs.String("gateway", "", "gateway position as \"x,y\" meters; builds a relay chain to it")
		verifyDep    = fs.Bool("verify", false, "run the feasibility oracle on every deployment; exit non-zero on violations")
		timeout      = fs.Duration("timeout", 0, "abort the run after this long, keeping the best-so-far deployment (0 = none)")
		progressIntv = fs.Duration("progress", 0, "print approAlg progress to stderr at this interval (0 = off)")
		ckptPath     = fs.String("checkpoint", "", "write a resumable checkpoint here when the run is stopped early")
		resumePath   = fs.String("resume", "", "resume an approAlg run (enumeration or -solver) from this checkpoint file")
		aggCell      = fs.Float64("agg-cell", 0, "aggregate users into weighted demand cells with this side in meters before solving (approAlg only; 0 = per-user)")
		outPath      = fs.String("out", "", "write the final deployment as JSON here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := uavnet.Options{
		S: *s, Workers: *workers, MaxSubsets: *maxSubsets, GroundLeftovers: *literal,
		Solver: *solver, SolverBudget: *budget,
	}
	if !opts.SolverIsEnum() {
		if *alg != "approAlg" {
			return fmt.Errorf("-solver replaces the approAlg enumeration; it needs -alg approAlg")
		}
		// -seed drives the solver RNGs. The enumeration has no seed flag of
		// its own: a fresh run keeps Seed zero, a resumed one the
		// checkpoint's.
		opts.Seed = *seed
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	aggOpts := uavnet.AggregateOptions{CellSide: *aggCell}
	if err := aggOpts.Validate(); err != nil {
		return err
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
	names := []string{*alg}
	if *alg == "all" {
		names = uavnet.AlgorithmNames()
	}
	var in *uavnet.Instance
	if *aggCell != 0 {
		for _, name := range names {
			if name != "approAlg" {
				return fmt.Errorf("-agg-cell supports only approAlg; %s needs a per-user instance", name)
			}
		}
		if *refine {
			return fmt.Errorf("-agg-cell and -refine are incompatible: pathloss refinement needs a per-user instance")
		}
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
	if *resumePath != "" {
		cp, err := uavnet.LoadCheckpoint(*resumePath)
		if err != nil {
			return err
		}
		opts.Resume = cp
		if opts.SolverIsEnum() {
			opts.Seed = cp.Seed
		}
		done, total := cp.Frontier()
		fmt.Printf("resuming %s checkpoint %s at %d / %d\n", cp.Algorithm, *resumePath, done, total)
	}

	var runErr error
	for _, name := range names {
		start := time.Now()
		var dep *uavnet.Deployment
		switch {
		case *gatewayAt != "" && name == "approAlg":
			// approAlg plans the gateway in: its cells become required anchors.
			gw, err := parseGateway(*gatewayAt)
			if err != nil {
				return err
			}
			dep, err = uavnet.DeployToGatewayContext(ctx, in, gw, opts)
			if err != nil && dep == nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			runErr = errors.Join(runErr, err)
		default:
			var err error
			dep, err = uavnet.DeployWithContext(ctx, name, in, opts)
			if err != nil && dep == nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			runErr = errors.Join(runErr, err)
			if *gatewayAt != "" && dep.Status != uavnet.StatusStopped {
				// Baselines are gateway-oblivious; retrofit a relay chain.
				gw, err := parseGateway(*gatewayAt)
				if err != nil {
					return err
				}
				dep, err = uavnet.ConnectToGateway(in, dep, gw)
				if err != nil {
					return fmt.Errorf("%s: gateway: %w", name, err)
				}
			}
		}
		if *refine && dep.Status != uavnet.StatusStopped {
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
		if dep.Status == uavnet.StatusStopped {
			switch {
			case *ckptPath != "" && dep.Checkpoint != nil:
				if err := uavnet.SaveCheckpoint(*ckptPath, dep.Checkpoint); err != nil {
					return fmt.Errorf("%s: checkpoint: %w", name, err)
				}
				done, total := dep.Checkpoint.Frontier()
				fmt.Printf("run stopped at %d / %d; resume with -resume %s\n\n", done, total, *ckptPath)
			default:
				fmt.Printf("run stopped early; pass -checkpoint to make it resumable\n\n")
			}
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
	return runErr
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

// parseGateway parses an "x,y" position in meters.
func parseGateway(s string) (uavnet.Gateway, error) {
	var x, y float64
	if _, err := fmt.Sscanf(s, "%f,%f", &x, &y); err != nil {
		return uavnet.Gateway{}, fmt.Errorf("bad -gateway %q (want \"x,y\"): %w", s, err)
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
