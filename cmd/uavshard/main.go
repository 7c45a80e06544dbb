// Command uavshard runs one shard of an approAlg enumeration, or merges the
// partial checkpoints of a sharded run into the final deployment. It is the
// multi-process face of the shard layer (DESIGN.md §13): each worker owns a
// deterministic contiguous sub-range of the C(m,s) anchor-subset index space
// (or of the sample stream under -max-subsets), so workers share nothing and
// can run on one box or many.
//
// Split a scenario across 4 workers and merge:
//
//	uavshard worker -scenario sc.json -shard 0/4 -out part0.ckpt
//	uavshard worker -scenario sc.json -shard 1/4 -out part1.ckpt
//	uavshard worker -scenario sc.json -shard 2/4 -out part2.ckpt
//	uavshard worker -scenario sc.json -shard 3/4 -out part3.ckpt
//	uavshard merge  -scenario sc.json -out deployment.json part*.ckpt
//
// Every worker writes its partial checkpoint whether it finishes the shard
// or is interrupted (SIGINT, -timeout, -stop-after); an interrupted worker
// exits non-zero so drivers notice, and continues with -resume. All solver
// flags (-s, -max-subsets, -seed, -literal, -agg-cell) must be identical
// across the workers and the merge — the checkpoints carry the scenario
// fingerprint and the options, and merge rejects any mismatch, duplicate
// shard, gap, or overlap. merge writes a deployment byte-identical to a
// single-process run. If some shards are incomplete, merge instead writes a
// merged resumable checkpoint to -checkpoint and exits with status 3; finish
// it with `uavdeploy -resume` or by re-running the unfinished workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "worker":
		err = workerCmd(os.Args[2:])
	case "merge":
		err = mergeCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "uavshard: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uavshard:", err)
		if _, ok := err.(incompleteError); ok {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  uavshard worker -scenario FILE -shard i/N -out PART.ckpt [solver flags]
  uavshard merge  -scenario FILE -out DEP.json [solver flags] PART.ckpt...

run "uavshard worker -h" or "uavshard merge -h" for the flags.
`)
}

// incompleteError reports a merge whose shards do not yet cover the whole
// enumeration; main translates it to exit status 3 so scripts can tell
// "re-run missing shards" from a hard failure.
type incompleteError struct {
	remaining []uavnet.Span
}

func (e incompleteError) Error() string {
	var b strings.Builder
	b.WriteString("shards incomplete; unprocessed ranges:")
	for _, sp := range e.remaining {
		fmt.Fprintf(&b, " [%d,%d)", sp.Start, sp.End)
	}
	return b.String()
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

// solverFlags registers the flags that shape the enumeration and must agree
// between every worker and the merge.
type solverFlags struct {
	s          *int
	maxSubsets *int
	seed       *int64
	literal    *bool
	aggCell    *float64
}

func registerSolverFlags(fs *flag.FlagSet) solverFlags {
	return solverFlags{
		s:          fs.Int("s", 3, "approAlg anchor parameter s"),
		maxSubsets: fs.Int("max-subsets", 0, "anchor-subset cap (0 = exhaustive); same value on every worker and the merge"),
		seed:       fs.Int64("seed", 0, "sampling seed under -max-subsets; same value on every worker and the merge"),
		literal:    fs.Bool("literal", false, "run approAlg exactly as the paper's pseudocode (ground leftover UAVs)"),
		aggCell:    fs.Float64("agg-cell", 0, "aggregate users into weighted demand cells with this side in meters (0 = per-user)"),
	}
}

func (sf solverFlags) options() uavnet.Options {
	return uavnet.Options{
		S:               *sf.s,
		MaxSubsets:      *sf.maxSubsets,
		Seed:            *sf.seed,
		GroundLeftovers: *sf.literal,
	}
}

// buildInstance checks the demand-cell side, then loads the scenario and
// precomputes the (optionally aggregated) instance — identically on workers
// and the merge, so the fingerprints agree.
func buildInstance(scenarioPath string, aggCell float64) (*uavnet.Instance, error) {
	agg := uavnet.AggregateOptions{CellSide: aggCell}
	if err := agg.Validate(); err != nil {
		return nil, err
	}
	if scenarioPath == "" {
		return nil, fmt.Errorf("missing -scenario")
	}
	sc, err := uavnet.LoadScenario(scenarioPath)
	if err != nil {
		return nil, err
	}
	if aggCell != 0 {
		return uavnet.NewAggregateInstance(sc, agg)
	}
	return uavnet.NewInstance(sc)
}

func workerCmd(args []string) error {
	fs := flag.NewFlagSet("uavshard worker", flag.ContinueOnError)
	var (
		scenarioPath = fs.String("scenario", "", "scenario JSON (from uavgen)")
		shardStr     = fs.String("shard", "", "shard to solve as \"i/N\" (0-based)")
		outPath      = fs.String("out", "", "write the partial checkpoint here (always written, finished or not)")
		workers      = fs.Int("workers", 1, "worker goroutines for this shard (0 = all cores)")
		timeout      = fs.Duration("timeout", 0, "stop the shard after this long, keeping a resumable checkpoint (0 = none)")
		stopAfter    = fs.Int64("stop-after", 0, "stop once the cursor reaches this absolute enumeration index (0 = none); deterministic interruption for tests and incremental sweeps")
		progressIntv = fs.Duration("progress", 0, "print progress to stderr at this interval (0 = off)")
		resumePath   = fs.String("resume", "", "resume this shard from its earlier partial checkpoint")
		sf           = registerSolverFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments after flags: %v", fs.Args())
	}
	if *timeout < 0 || *progressIntv < 0 {
		return fmt.Errorf("-timeout and -progress must be non-negative, got %v and %v", *timeout, *progressIntv)
	}
	if *shardStr == "" || *outPath == "" {
		return fmt.Errorf("worker needs -scenario, -shard, and -out")
	}
	shard, err := parseShard(*shardStr)
	if err != nil {
		return err
	}
	opts := sf.options()
	opts.Workers = *workers
	opts.Shard = shard
	opts.StopAfter = *stopAfter
	if err := opts.Validate(); err != nil {
		return err
	}

	// SIGINT stops the shard gracefully: each worker finishes the subset it
	// has claimed and the partial checkpoint still lands in -out.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	in, err := buildInstance(*scenarioPath, *sf.aggCell)
	if err != nil {
		return err
	}
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
	}

	start := time.Now()
	dep, runErr := uavnet.DeployInstanceContext(ctx, in, opts)
	if runErr != nil && dep == nil {
		return runErr
	}
	elapsed := time.Since(start)
	cp := dep.Checkpoint
	if cp == nil {
		return fmt.Errorf("shard run returned no checkpoint")
	}
	if err := uavnet.SaveCheckpoint(*outPath, cp); err != nil {
		return err
	}
	r := cp.Range()
	bestServed := 0
	if cp.Best != nil {
		bestServed = cp.Best.Served
	}
	fmt.Printf("shard %d/%d: range [%d, %d) of %d subsets, cursor %d, %d evaluated, %d pruned, best %d served, %s\n",
		shard.Index, shard.Count, r.Start, r.End, cp.Total, cp.Cursor,
		cp.Evaluated, cp.Pruned, bestServed, elapsed.Round(time.Millisecond))
	if dep.Status == uavnet.StatusStopped {
		why := "stop-after budget"
		if runErr != nil {
			why = runErr.Error()
		}
		return fmt.Errorf("shard %d/%d stopped before finishing its range (%s); continue with -resume %s",
			shard.Index, shard.Count, why, *outPath)
	}
	fmt.Printf("shard complete: partial checkpoint written to %s\n", *outPath)
	return nil
}

func mergeCmd(args []string) error {
	fs := flag.NewFlagSet("uavshard merge", flag.ContinueOnError)
	var (
		scenarioPath = fs.String("scenario", "", "scenario JSON (from uavgen)")
		outPath      = fs.String("out", "", "write the merged deployment as JSON here")
		ckptPath     = fs.String("checkpoint", "", "write the merged resumable checkpoint here when shards are incomplete")
		verifyDep    = fs.Bool("verify", false, "run the feasibility oracle on the merged deployment; exit non-zero on violations")
		sf           = registerSolverFlags(fs)
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: uavshard merge [flags] PART.ckpt...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("merge needs the partial checkpoint files as arguments")
	}
	if err := sf.options().Validate(); err != nil {
		return err
	}
	in, err := buildInstance(*scenarioPath, *sf.aggCell)
	if err != nil {
		return err
	}
	cps := make([]*uavnet.Checkpoint, len(paths))
	for i, p := range paths {
		if cps[i], err = uavnet.LoadCheckpoint(p); err != nil {
			return err
		}
	}

	dep, err := uavnet.MergeCheckpoints(in, sf.options(), cps)
	if err != nil {
		return err
	}
	if dep.Status == uavnet.StatusStopped {
		rem := dep.Checkpoint.RemainingSpans()
		if *ckptPath != "" {
			if err := uavnet.SaveCheckpoint(*ckptPath, dep.Checkpoint); err != nil {
				return err
			}
			fmt.Printf("merged %d partial checkpoints into %s; resume with uavdeploy -resume %s\n",
				len(cps), *ckptPath, *ckptPath)
		} else {
			fmt.Println("pass -checkpoint to save the merged resumable state")
		}
		return incompleteError{remaining: rem}
	}

	sc := in.Scenario
	fmt.Printf("merged %d shards: %d / %d users served, %d UAVs deployed, %d subsets evaluated, %d pruned\n",
		len(cps), dep.Served, sc.N(), dep.DeployedCount(), dep.SubsetsEvaluated, dep.SubsetsPruned)
	if *verifyDep {
		if rep := uavnet.Verify(in, dep); !rep.OK() {
			return fmt.Errorf("verification failed: %s", rep)
		}
		fmt.Println("verification: ok (capacity, min-rate, connectivity, matroids, bookkeeping)")
	}
	if *outPath != "" {
		if err := uavnet.SaveDeployment(*outPath, dep); err != nil {
			return err
		}
		fmt.Printf("deployment written to %s\n", *outPath)
	}
	return nil
}

// printProgress renders one Options.Progress snapshot to stderr.
func printProgress(p uavnet.RunProgress) {
	eta := "?"
	if p.ETA > 0 {
		eta = p.ETA.Round(time.Second).String()
	}
	total := p.Total
	if total < 1 {
		total = 1
	}
	fmt.Fprintf(os.Stderr, "progress: %d / %d shard subsets (%.1f%%), best %d served, elapsed %s, eta %s\n",
		p.Done, p.Total, 100*float64(p.Done)/float64(total),
		p.BestServed, p.Elapsed.Round(time.Second), eta)
}
