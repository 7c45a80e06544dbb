package main

import (
	"math"

	"github.com/uav-coverage/uavnet/internal/portfolio"
)

// Span names: the calls the traced run times, named after the function
// called where there is one.
const (
	// Per anchor subset of the replay: a root span per pass, the stages
	// under it, and Evaluate on its own.
	spanStages   = "replay.stages" // pass without per-call spans
	spanCalls    = "replay.calls"  // pass with per-call spans
	spanBFS      = "graph.MultiSourceBFSInto"
	spanGround   = "matroid.ground"
	spanReset    = "match.Reset"
	spanGreedy   = "matroid.LazyRunner.Run"
	spanConnect  = "graph.connect"
	spanEvaluate = "core.SubsetEvaluator.Evaluate"

	// Per traced scenario.
	spanAggregate = "core.Aggregate"
	spanInstance  = "core.instance" // NewInstance or NewAggregateInstance
	spanSolve     = "uavnet.DeployInstance"
	spanAssign    = "uavnet.EvaluatePlacement"
	spanWrite     = "atomicfile.WriteFile"

	// Per request of a serve load.
	spanRequest = "server.request"
	spanSubmit  = "server.submit"
	spanQueue   = "server.queue"
	spanRun     = "server.run"
	spanResult  = "server.result"
)

const (
	us = 1e3 // nanoseconds per microsecond
	ms = 1e6 // nanoseconds per millisecond
)

// spanSet is a filtered view of a trace's spans with the sums the metric
// formulas need.
type spanSet []Span

func (ss spanSet) where(keep func(Span) bool) spanSet {
	var out spanSet
	for _, s := range ss {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// durs returns the span durations in the given unit.
func (ss spanSet) durs(unit float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.Dur()) / unit
	}
	return out
}

// time sums the spans' durations in the given unit.
func (ss spanSet) time(unit float64) float64 {
	var sum float64
	for _, s := range ss {
		sum += float64(s.Dur()) / unit
	}
	return sum
}

// sum totals one named count.
func (ss spanSet) sum(key string) float64 {
	var sum float64
	for _, s := range ss {
		sum += float64(s.Counts[key])
	}
	return sum
}

// meanCount is the mean of one named count per span.
func (ss spanSet) meanCount(key string) float64 { return ss.sum(key) / float64(len(ss)) }

// perCall is the mean busy time per call of aggregate call spans, in µs.
func (ss spanSet) perCall() float64 {
	var calls, busy float64
	for _, s := range ss {
		calls += float64(s.Count)
		busy += float64(s.covered())
	}
	return busy / us / calls
}

// layerMetrics derives the per-layer metrics from a traced run's spans.
//
// Stage times per subset are totals over every replayed subset divided by
// the sample size, pruned subsets included, so core.eval_us is the sum of
// the stage times and core.residual_us. They come from the pass without
// per-call spans; the per-call pass supplies the matcher call times and the
// greedy's self time, and trace.overhead_ratio is its stage time over the
// other pass's.
func layerMetrics(spans []Span) map[string]Metric {
	byName := map[string]spanSet{}
	parentName := map[int]string{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		parentName[s.ID] = s.Name
	}
	under := func(root string) func(Span) bool {
		return func(s Span) bool { return parentName[s.Parent] == root }
	}
	self := selfTimes(spans)

	subsets := float64(len(byName[spanStages]))
	stage := func(name string) spanSet { return byName[name].where(under(spanStages)) }
	var plainUS, timedUS, greedySelf float64
	for _, name := range stageSpans {
		plainUS += stage(name).time(us)
		timedUS += byName[name].where(under(spanCalls)).time(us)
	}
	for _, s := range byName[spanGreedy].where(under(spanCalls)) {
		greedySelf += float64(self[s.ID]) / us
	}
	evalUS := byName[spanEvaluate].time(us) / subsets
	greedy := stage(spanGreedy)
	solves := byName[spanSolve]
	evaluated, pruned := solves.sum("evaluated"), solves.sum("pruned")
	writes := byName[spanWrite]

	m := map[string]Metric{
		"core.instance_ms":         {median(byName[spanInstance].durs(ms)), "ms"},
		"core.aggregate_ms":        {median(byName[spanAggregate].durs(ms)), "ms"},
		"core.solve_ms":            {median(solves.durs(ms)), "ms"},
		"core.demand_nodes":        {byName[spanInstance].meanCount("nodes"), "count"},
		"core.eval_us":             {evalUS, "us"},
		"core.residual_us":         {evalUS - plainUS/subsets, "us"},
		"core.feasible_ratio":      {byName[spanStages].sum("feasible") / subsets, "ratio"},
		"core.prune_ratio":         {pruned / (evaluated + pruned), "ratio"},
		"graph.bfs_us":             {stage(spanBFS).time(us) / subsets, "us"},
		"graph.bfs_nodes":          {stage(spanBFS).meanCount("nodes"), "count"},
		"graph.ground_size":        {stage(spanGround).meanCount("size"), "count"},
		"graph.connect_us":         {stage(spanConnect).time(us) / subsets, "us"},
		"graph.mst_edges":          {stage(spanConnect).meanCount("mst_edges"), "count"},
		"graph.relay_nodes":        {stage(spanConnect).meanCount("relays"), "count"},
		"matroid.ground_us":        {stage(spanGround).time(us) / subsets, "us"},
		"matroid.greedy_us":        {greedy.time(us) / subsets, "us"},
		"matroid.greedy_self_us":   {greedySelf / subsets, "us"},
		"matroid.rounds":           {greedy.meanCount("rounds"), "count"},
		"matroid.gain_calls":       {greedy.meanCount("gain"), "count"},
		"matroid.bound_calls":      {greedy.meanCount("bound"), "count"},
		"matroid.useful_ratio":     {greedy.sum("commit") / greedy.sum("gain"), "ratio"},
		"match.gain_us":            {byName["match.Gain"].perCall(), "us"},
		"match.commit_us":          {byName["match.Commit"].perCall(), "us"},
		"match.bound_us":           {byName["match.GainBound"].perCall(), "us"},
		"match.reset_us":           {stage(spanReset).time(us) / float64(len(stage(spanReset))), "us"},
		"assign.final_ms":          {median(byName[spanAssign].durs(ms)), "ms"},
		"atomicfile.write_ms":      {median(writes.durs(ms)), "ms"},
		"atomicfile.payload_bytes": {writes.meanCount("bytes"), "bytes"},
		"trace.overhead_ratio":     {timedUS / plainUS, "ratio"},
	}

	// Portfolio members run solo; a member's trajectory is the same solo or
	// racing, so its solo rate is its rate in the race.
	for _, name := range portfolio.Members() {
		member := byName["portfolio."+name]
		m["portfolio."+name+".evals_per_s"] = Metric{member.sum("evals") / member.time(1e9), "1/s"}
	}

	// Server stages per new job; dedupe hits skip the queue and the run.
	requests := byName[spanRequest]
	dedupe := map[int]bool{}
	for _, s := range requests {
		if s.Counts["dedupe"] == 1 {
			dedupe[s.ID] = true
		}
	}
	newJob := func(s Span) bool { return !dedupe[s.Parent] }
	newJobs := float64(len(requests) - len(dedupe))
	m["server.submit_ms"] = Metric{median(byName[spanSubmit].where(newJob).durs(ms)), "ms"}
	m["server.queue_ms"] = Metric{median(byName[spanQueue].where(newJob).durs(ms)), "ms"}
	m["server.run_ms"] = Metric{median(byName[spanRun].where(newJob).durs(ms)), "ms"}
	m["server.result_ms"] = Metric{median(byName[spanResult].where(newJob).durs(ms)), "ms"}
	m["server.checkpoints_per_job"] = Metric{requests.sum("checkpoints") / newJobs, "count"}
	m["server.dedupe_hit_ratio"] = Metric{float64(len(dedupe)) / float64(len(requests)), "ratio"}

	// A formula with no spans to read (a workload too short to have them)
	// is NaN, which JSON cannot carry; report it as 0.
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m[k] = Metric{0, v.Unit}
		}
	}
	return m
}
