// Command uavbench regenerates the paper's evaluation figures (Section IV):
//
//	Fig. 4  — served users vs. number of UAVs K (2..20), n = 3000, s = 3
//	Fig. 5  — served users vs. number of users n (1000..3000), K = 20, s = 3
//	Fig. 6a — served users vs. parameter s (1..4), K = 20, n = 3000
//	Fig. 6b — running time vs. parameter s (same runs as 6a)
//
// Usage:
//
//	uavbench -fig 4                    # paper scale (minutes)
//	uavbench -fig all -scale quick     # small instances (seconds)
//	uavbench -fig 6 -smax 3 -csv out.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/atomicfile"
	"github.com/uav-coverage/uavnet/internal/eval"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "uavbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("uavbench", flag.ExitOnError)
	var (
		fig        = fs.String("fig", "all", "figure to regenerate: 4 | 5 | 6 | 6a | 6b | all | ablation | hetero")
		scale      = fs.String("scale", "paper", "paper | quick")
		seeds      = fs.Int("seeds", 1, "number of seeds to average over")
		s          = fs.Int("s", 3, "approAlg anchor parameter for Figs. 4 and 5")
		smax       = fs.Int("smax", 4, "largest s for Fig. 6")
		workers    = fs.Int("workers", 0, "approAlg worker goroutines (0 = all cores)")
		maxSubsets = fs.Int("max-subsets", 0, "approAlg anchor-subset cap (0 = exhaustive)")
		solver     = fs.String("solver", "enum", "replace the enumeration in Figs. 4-6: enum | anneal | tabu | grasp | genetic | portfolio")
		budget     = fs.Int64("budget", 0, "evaluations per -solver member (0 = default)")
		csvPath    = fs.String("csv", "", "also write results as CSV to this file (one block per figure)")
		quiet      = fs.Bool("q", false, "suppress per-run progress")
		literal    = fs.Bool("literal", false, "run approAlg exactly as the paper's pseudocode (ground leftover UAVs)")
		chart      = fs.Bool("chart", false, "also render each figure as an ASCII line chart")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with 'go tool pprof')")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		timeout    = fs.Duration("timeout", 0, "abort the whole campaign after this long (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case !slices.Contains([]string{"4", "5", "6", "6a", "6b", "all", "ablation", "hetero"}, *fig):
		return fmt.Errorf("unknown -fig %q: want 4, 5, 6, 6a, 6b, all, ablation or hetero", *fig)
	case *scale != "paper" && *scale != "quick":
		return fmt.Errorf("unknown -scale %q: want paper or quick", *scale)
	case *seeds < 1 || *smax < 1:
		return fmt.Errorf("-seeds and -smax must be at least 1, got %d and %d", *seeds, *smax)
	case *timeout < 0:
		return fmt.Errorf("-timeout must be non-negative, got %v", *timeout)
	}
	// The sweeps give -max-subsets to the enumeration and -budget to a
	// metaheuristic only: refuse a flag set a solver would, not drop a flag.
	if err := (uavnet.Options{S: *s, Workers: *workers, MaxSubsets: *maxSubsets,
		Solver: *solver, SolverBudget: *budget}).Validate(); err != nil {
		return err
	}

	// SIGINT (or -timeout) aborts the campaign between algorithm runs instead
	// of leaving half-written output; approAlg runs also stop mid-enumeration.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile) //uavlint:allow atomicwrite -- pprof stream, not persistence: written incrementally while profiling, worthless if the run dies anyway
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile) //uavlint:allow atomicwrite -- pprof snapshot, not persistence: a partial profile from a dead run has no consumer
			if err != nil {
				fmt.Fprintln(os.Stderr, "uavbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush transient garbage so the profile shows live retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "uavbench: memprofile:", err)
			}
		}()
	}

	base, ks, ns, ss := figureSettings(*scale, *smax)
	cfg := eval.Config{
		Base:         base,
		S:            *s,
		Workers:      *workers,
		MaxSubsets:   *maxSubsets,
		Literal:      *literal,
		Solver:       *solver,
		SolverBudget: *budget,
		Context:      ctx,
	}
	for i := 0; i < *seeds; i++ {
		cfg.Seeds = append(cfg.Seeds, int64(i+1))
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	var csv strings.Builder
	emit := func(series *eval.Series, includeTime bool) {
		fmt.Println(series.FormatServed())
		if *chart {
			fmt.Println(series.Chart(60, 14))
		}
		if includeTime {
			fmt.Println("running time:")
			fmt.Println(series.FormatElapsed())
			if *chart {
				fmt.Println(series.ChartElapsed(60, 14))
			}
		}
		if imp, err := series.Improvement(len(series.Points) - 1); err == nil {
			fmt.Printf("approAlg improvement over best baseline at the last point: %+.1f%%\n\n", 100*imp)
		}
		csv.WriteString(series.CSV())
		csv.WriteByte('\n')
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("4") {
		series, err := eval.Fig4(cfg, ks)
		if err != nil {
			return err
		}
		emit(series, false)
	}
	if want("5") {
		series, err := eval.Fig5(cfg, ns)
		if err != nil {
			return err
		}
		emit(series, false)
	}
	if want("6") || want("6a") || want("6b") {
		series, err := eval.Fig6(cfg, ss)
		if err != nil {
			return err
		}
		emit(series, true)
	}
	if *fig == "ablation" {
		series, err := eval.Ablation(cfg)
		if err != nil {
			return err
		}
		emit(series, true)
	}
	if *fig == "hetero" {
		series, err := eval.Heterogeneity(cfg, []float64{0, 0.25, 0.5, 0.75, 1})
		if err != nil {
			return err
		}
		emit(series, false)
	}
	if *csvPath != "" {
		// Results of a minutes-long paper-scale run deserve the fsync-safe
		// path: a torn CSV after a crash looks like a complete one.
		if err := atomicfile.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote CSV to %s\n", *csvPath)
	}
	return nil
}

// figureSettings returns the scenario base and sweep ranges per scale.
func figureSettings(scale string, smax int) (uavnet.ScenarioSpec, []int, []int, []int) {
	var ss []int
	for s := 1; s <= smax; s++ {
		ss = append(ss, s)
	}
	switch scale {
	case "quick":
		base := uavnet.ScenarioSpec{AreaSide: 2000, CellSide: 500, N: 300, K: 8, CMin: 10, CMax: 60}
		return base, []int{2, 4, 6, 8}, []int{100, 200, 300}, ss
	default: // paper; run refuses any other scale
		base := uavnet.ScenarioSpec{} // Section IV-A defaults
		ks := []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
		ns := []int{1000, 1500, 2000, 2500, 3000}
		return base, ks, ns, ss
	}
}
