package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/atomicfile"
	"github.com/uav-coverage/uavnet/internal/portfolio"
)

// solverWorkload is a workload of library solves: scenarios are generated
// from the seed (untimed), their instances built (timed, the set-up), then
// solved one call at a time (timed, the measurement).
type solverWorkload struct {
	name string
	// spec returns the generator spec of the scenario with the given seed.
	spec func(seed int64) uavnet.ScenarioSpec
	// aggCell, when positive, builds demand-aggregated instances with this
	// cell side instead of per-user ones.
	aggCell float64
	opts    uavnet.Options
	// scenarios and solves give the scenario count and the solves per
	// scenario for a run length; builds is the builds per scenario.
	scenarios, solves func(seconds int) int
	builds            int
	// pinUnits is how many leading scenarios served_total sums over.
	pinUnits int
	// traceScenarios is how many scenarios the traced run replays, and
	// memberBudget each portfolio member's evaluation budget there.
	traceScenarios int
	memberBudget   int64
}

// perSecond returns a work count of rate units per second of run length,
// at least one: work is fixed by the --seconds flag, never by the clock, so
// two commits compared at the same flags do identical work.
func perSecond(rate float64) func(int) int {
	return func(seconds int) int { return max(1, int(math.Round(rate*float64(seconds)))) }
}

// overrun bounds a run's measurement at this multiple of --seconds: the
// work is sized to take about --seconds, and a machine slowed down that
// much by other load cuts the run short, after at least one measured
// operation, rather than overrunning the benchmark's time budget. The cut
// is logged; it never happens at normal speed, so two commits still do
// identical work.
const overrun = 2

// fixed returns a work count that does not grow with the run length.
func fixed(n int) func(int) int { return func(int) int { return n } }

// scenarioSeed derives scenario i's generator seed from the run seed. The
// generator seeds the fleet with seed+1, so scenario seeds are spaced by two.
func scenarioSeed(seed int64, i int) int64 { return seed<<20 + 2*int64(i) }

var (
	// fig6S3 is the paper's Fig. 6 point at bench scale: exhaustive s = 3
	// enumeration on m = 36 cells with many users per cell.
	fig6S3 = &solverWorkload{
		name: "fig6-s3",
		spec: func(seed int64) uavnet.ScenarioSpec {
			return uavnet.ScenarioSpec{AreaSide: 3000, CellSide: 500, N: 600, K: 10, CMin: 20, CMax: 120,
				Distribution: uavnet.UniformUsers, Seed: seed}
		},
		opts:      uavnet.Options{S: 3, Workers: procs},
		scenarios: perSecond(3.5), solves: fixed(1), builds: 1,
		pinUnits: 8, traceScenarios: 4, memberBudget: 500,
	}
	// portfolioM900 is the large-m path: m = 900 cells, where only the
	// budgeted portfolio is practical.
	portfolioM900 = &solverWorkload{
		name: "portfolio-m900",
		spec: func(seed int64) uavnet.ScenarioSpec {
			return uavnet.ScenarioSpec{AreaSide: 3000, CellSide: 100, N: 600, K: 10, CMin: 20, CMax: 120,
				Distribution: uavnet.UniformUsers, Seed: seed}
		},
		opts:      uavnet.Options{S: 3, Workers: procs, Solver: "portfolio", SolverBudget: 1000, Seed: 1},
		scenarios: perSecond(1.4), solves: fixed(1), builds: 1,
		pinUnits: 3, traceScenarios: 2, memberBudget: 1000,
	}
	// agg1M is the million-user path: one fat-tailed scenario snapped to the
	// demand grid, aggregated into demand cells, solved repeatedly.
	agg1M = &solverWorkload{
		name: "agg-1m",
		spec: func(seed int64) uavnet.ScenarioSpec {
			return uavnet.ScenarioSpec{AreaSide: 3000, CellSide: 500, N: 1_000_000, K: 20, CMin: 50, CMax: 300,
				SnapSide: 250, Seed: seed}
		},
		aggCell:   250,
		opts:      uavnet.Options{S: 3, Workers: procs},
		scenarios: fixed(1), solves: perSecond(6), builds: 5,
		pinUnits: 1, traceScenarios: 1, memberBudget: 500,
	}
)

// buildInstance precomputes a scenario's instance: demand-aggregated with
// the given cell side when it is positive, per-user otherwise.
func buildInstance(sc *uavnet.Scenario, aggCell float64) (*uavnet.Instance, error) {
	if aggCell > 0 {
		return uavnet.NewAggregateInstance(sc, uavnet.AggregateOptions{CellSide: aggCell})
	}
	return uavnet.NewInstance(sc)
}

// generate builds scenario i of the run (untimed: the program under test only
// receives the generated inputs).
func (w *solverWorkload) generate(seed int64, i int) (*uavnet.Scenario, error) {
	return uavnet.GenerateScenario(w.spec(scenarioSeed(seed, i)))
}

// checkSolve validates one solve outside the timed section: the deployment
// is complete, passes Verify, and matches ref (an earlier solve of the same
// instance) when ref is non-nil.
func checkSolve(in *uavnet.Instance, dep, ref *uavnet.Deployment, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("solve: %w", err)
	case dep.Status != uavnet.StatusComplete && dep.Status != "":
		return fmt.Errorf("solve ended %s", dep.Status)
	}
	if rep := uavnet.Verify(in, dep); !rep.OK() {
		return fmt.Errorf("deployment fails Verify: %v", rep)
	}
	if ref != nil && !sameDeployment(dep, ref) {
		return fmt.Errorf("repeated solve differs: served %d vs %d", dep.Served, ref.Served)
	}
	return nil
}

// sameDeployment compares the fields that identify a solve's answer without
// marshalling a million-user assignment.
func sameDeployment(a, b *uavnet.Deployment) bool {
	return a.Served == b.Served && a.SubsetsEvaluated == b.SubsetsEvaluated &&
		a.SubsetsPruned == b.SubsetsPruned && slices.Equal(a.LocationOf, b.LocationOf) &&
		slices.Equal(a.Anchors, b.Anchors) && slices.Equal(a.Selected, b.Selected)
}

// run is the untraced run. Scenario by scenario it builds the instance
// (timed: the set-up), solves it (timed, one call at a time) and checks the
// answers outside the timed sections; instances are dropped after use so
// memory stays at one instance. A warm-up solve of the first instance lets
// lazy set-up finish before timing and is the reference its timed solves
// must reproduce.
func (w *solverWorkload) run(cfg config, t *tally) (map[string]Metric, error) {
	n, solves := w.scenarios(cfg.seconds), w.solves(cfg.seconds)
	deadline := time.Now().Add(overrun * time.Duration(cfg.seconds) * time.Second)
	var buildS, latMS []float64
	cut := func() bool { return len(latMS) > 0 && time.Now().After(deadline) }
	var solveS float64
	var evals int64
	served, scenarios := 0, 0
	for i := 0; i < n && !cut(); i++ {
		sc, err := w.generate(cfg.seed, i)
		if err != nil {
			return nil, err
		}
		var in *uavnet.Instance
		for b := 0; b < w.builds; b++ {
			start := time.Now()
			in, err = buildInstance(sc, w.aggCell)
			buildS = append(buildS, time.Since(start).Seconds())
			if err != nil {
				return nil, fmt.Errorf("build scenario %d: %w", i, err)
			}
		}
		var ref *uavnet.Deployment
		if i == 0 {
			ref, err = uavnet.DeployInstance(in, w.opts)
			t.op(checkSolve(in, ref, nil, err))
			if err != nil {
				return nil, err
			}
		}
		for k := 0; k < solves && !cut(); k++ {
			start := time.Now()
			dep, err := uavnet.DeployInstance(in, w.opts)
			d := time.Since(start)
			if err := checkSolve(in, dep, ref, err); err != nil {
				t.op(fmt.Errorf("%s scenario %d solve %d: %w", w.name, i, k, err))
				continue
			}
			t.op(nil)
			latMS = append(latMS, float64(d)/float64(time.Millisecond))
			solveS += d.Seconds()
			evals += dep.SubsetsEvaluated
			if ref == nil {
				ref = dep
			}
			if k == 0 && i < w.pinUnits {
				served += dep.Served
			}
		}
		scenarios++
	}
	if len(latMS) == 0 {
		return nil, fmt.Errorf("every solve failed")
	}
	if scenarios >= w.pinUnits {
		t.op(checkPin(cfg, served))
	}
	fmt.Fprintf(cfg.out, "%s: %d of %d scenarios, %d builds, %d of %d solves, served_total %d over the first %d scenarios\n",
		w.name, scenarios, n, len(buildS), len(latMS), n*solves, served, min(scenarios, w.pinUnits))
	return endToEnd(median(buildS), latMS, float64(len(latMS))/solveS, float64(evals)/solveS), nil
}

// endToEnd assembles the end-to-end metrics every workload reports (the
// caller adds max_rss_mb). latMS are the unit operations' latencies; the
// tail is the highest percentile leaving ten samples above it, or the
// largest sample in runs too short to have one.
func endToEnd(setupS float64, latMS []float64, opsPerS, evalsPerS float64) map[string]Metric {
	tail, _, ok := tailSample(latMS)
	if !ok {
		tail = slices.Max(latMS)
	}
	return map[string]Metric{
		"setup_s":         {setupS, "s"},
		"latency_p50_ms":  {median(latMS), "ms"},
		"latency_tail_ms": {tail, "ms"},
		"ops_per_s":       {opsPerS, "1/s"},
		"evals_per_s":     {evalsPerS, "1/s"},
	}
}

// traced is the traced run: a few scenarios built, solved, assigned and
// saved under spans; 500 sampled anchor subsets per scenario replayed stage
// by stage; each portfolio member run solo; and a short serve probe so the
// server layer is measured on every workload.
func (w *solverWorkload) traced(cfg config, t *tally, tr *Tracer) (map[string]Metric, error) {
	var first *uavnet.Instance
	for i := 0; i < min(w.traceScenarios, w.scenarios(cfg.seconds)); i++ {
		sc, err := w.generate(cfg.seed, i)
		if err != nil {
			return nil, err
		}
		sub := fmt.Sprintf("scenario-%d", i)
		in, err := traceBuild(tr, sc, w.aggCell, sub)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = in
		}
		if err := traceScenario(cfg, t, tr, in, w.opts, sub, int64(i)); err != nil {
			return nil, err
		}
	}
	if err := traceMembers(t, tr, first, w.opts, w.memberBudget); err != nil {
		return nil, err
	}
	if err := serveProbe(cfg, t, tr); err != nil {
		return nil, err
	}
	return layerMetrics(tr.Spans()), nil
}

// traceBuild builds an instance (aggregated when aggCell is positive) under
// a span. It also times demand aggregation of the users on its own, with
// the aggregated workload's cell side or, for per-user workloads, the
// hovering grid's: on agg-1m that splits the set-up, elsewhere it prices
// aggregating the workload's users.
func traceBuild(tr *Tracer, sc *uavnet.Scenario, aggCell float64, sub string) (*uavnet.Instance, error) {
	start := tr.Now()
	dem, err := uavnet.Aggregate(sc, uavnet.AggregateOptions{CellSide: aggCell})
	if err != nil {
		return nil, err
	}
	tr.Add(Span{Name: spanAggregate, Start: start, End: tr.Now(), Sub: sub,
		Counts: map[string]int64{"nodes": int64(len(dem.Cells))}})
	start = tr.Now()
	in, err := buildInstance(sc, aggCell)
	if err != nil {
		return nil, err
	}
	tr.Add(Span{Name: spanInstance, Start: start, End: tr.Now(), Sub: sub,
		Counts: map[string]int64{"nodes": int64(in.NumNodes())}})
	return in, nil
}

// traceScenario solves one instance under a span, re-scores and saves the
// winning deployment under spans, and replays sampled anchor subsets.
func traceScenario(cfg config, t *tally, tr *Tracer, in *uavnet.Instance, opts uavnet.Options, sub string, salt int64) error {
	start := tr.Now()
	dep, err := uavnet.DeployInstance(in, opts)
	end := tr.Now()
	t.op(checkSolve(in, dep, nil, err))
	if err != nil {
		return err
	}
	tr.Add(Span{Name: spanSolve, Start: start, End: end, Sub: sub,
		Counts: map[string]int64{"evaluated": dep.SubsetsEvaluated, "pruned": dep.SubsetsPruned}})

	start = tr.Now()
	again, err := uavnet.EvaluatePlacement(in, dep.LocationOf)
	end = tr.Now()
	if err == nil && again.Served != dep.Served {
		err = fmt.Errorf("EvaluatePlacement serves %d, the solve %d", again.Served, dep.Served)
	}
	t.op(err)
	tr.Add(Span{Name: spanAssign, Start: start, End: end, Sub: sub})

	data, err := uavnet.MarshalDeployment(dep)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := filepath.Join(cfg.scratch, "deployment.json")
	for k := 0; k < 3; k++ {
		start = tr.Now()
		err := atomicfile.WriteFile(path, data, 0o644)
		end = tr.Now()
		t.op(err)
		tr.Add(Span{Name: spanWrite, Start: start, End: end, Sub: sub,
			Counts: map[string]int64{"bytes": int64(len(data))}})
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.op(fmt.Errorf("saved deployment does not read back: %v", err))
	}
	return replaySubsets(t, tr, in, opts, sub, cfg.seed<<8+salt)
}

// traceMembers runs each portfolio member alone on the instance with the
// given budget; a member's trajectory is the same solo or racing.
func traceMembers(t *tally, tr *Tracer, in *uavnet.Instance, opts uavnet.Options, budget int64) error {
	for _, name := range portfolio.Members() {
		o := opts
		o.Solver, o.SolverBudget, o.Seed = name, budget, 1
		start := tr.Now()
		dep, err := uavnet.DeployInstance(in, o)
		end := tr.Now()
		t.op(checkSolve(in, dep, nil, err))
		if err != nil {
			return err
		}
		tr.Add(Span{Name: "portfolio." + name, Start: start, End: end,
			Counts: map[string]int64{"evals": dep.SubsetsEvaluated}})
	}
	return nil
}

// checkPin compares a seed-1 run's served_total with the pinned value.
func checkPin(cfg config, served int) error {
	if cfg.seed != 1 {
		return nil
	}
	want, ok := pins[cfg.workload]
	if !ok {
		return fmt.Errorf("no served_total pin for %s", cfg.workload)
	}
	if served != want {
		return fmt.Errorf("%s: served_total %d at seed 1, pinned %d", cfg.workload, served, want)
	}
	return nil
}
