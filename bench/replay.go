package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/graph"
	"github.com/uav-coverage/uavnet/internal/match"
	"github.com/uav-coverage/uavnet/internal/matroid"
)

// replaySample is how many anchor subsets the traced run replays per
// scenario.
const replaySample = 500

// stageSpans are the replayed stages whose times add up, with the residual,
// to one Evaluate call.
var stageSpans = []string{spanBFS, spanGround, spanReset, spanGreedy, spanConnect}

// callKind names the oracle calls the greedy makes.
type callKind int

const (
	callGain callKind = iota
	callCommit
	callGainBound
	callBound
	nCallKinds
)

var callNames = [nCallKinds]string{"match.Gain", "match.Commit", "match.GainBound", "oracle.Bound"}

// callAgg accumulates one call kind's calls under the current greedy run.
type callAgg struct {
	count            int
	start, end, busy int64
}

// engine is the matcher surface the oracle drives: match.Matcher on
// per-user instances, match.WeightedMatcher on aggregated ones.
type engine interface {
	Reset() error
	Gain(capacity int, eligible []int) (int, error)
	Commit(capacity int, eligible []int) (int, error)
	GainBound(capacity int, eligMask match.Bitset) int
}

// benchOracle is the greedy's marginal-gain oracle rebuilt from the
// instance's public fields, answering exactly as the program's own placement
// oracle does: round r places the r-th largest UAV, gains and commits go to
// the matcher, the static bound is min(first capacity, eligible demand) and
// the dynamic bound is the matcher's GainBound. With tr set, every call is
// timed into per-kind aggregates; without, calls are only counted.
type benchOracle struct {
	in    *uavnet.Instance
	caps  []int
	eng   engine
	tr    *Tracer
	calls [nCallKinds]callAgg
}

func newBenchOracle(in *uavnet.Instance, caps []int) (*benchOracle, error) {
	o := &benchOracle{in: in, caps: caps}
	var err error
	if in.Aggregated() {
		o.eng, err = match.NewWeightedMatcher(in.Weights, len(caps))
	} else {
		o.eng, err = match.NewMatcher(in.NumNodes(), len(caps))
	}
	return o, err
}

func (o *benchOracle) class(round int) int { return o.in.ClassOf[o.in.ByCapacity[round]] }

func (o *benchOracle) begin() int64 {
	if o.tr == nil {
		return 0
	}
	return o.tr.Now()
}

func (o *benchOracle) done(k callKind, t0 int64) {
	c := &o.calls[k]
	c.count++
	if o.tr == nil {
		return
	}
	t1 := o.tr.Now()
	if c.count == 1 {
		c.start = t0
	}
	c.end = t1
	c.busy += t1 - t0
}

// Gain implements matroid.Oracle.
func (o *benchOracle) Gain(round, loc int) (int, error) {
	t0 := o.begin()
	g, err := o.eng.Gain(o.caps[round], o.in.Eligible[o.class(round)][loc])
	o.done(callGain, t0)
	return g, err
}

// Commit implements matroid.Oracle.
func (o *benchOracle) Commit(round, loc int) (int, error) {
	t0 := o.begin()
	g, err := o.eng.Commit(o.caps[round], o.in.Eligible[o.class(round)][loc])
	o.done(callCommit, t0)
	return g, err
}

// Bound implements matroid.Bounder.
func (o *benchOracle) Bound(loc int) int {
	t0 := o.begin()
	c := o.class(0)
	n := len(o.in.Eligible[c][loc])
	if o.in.EligWeight != nil {
		n = o.in.EligWeight[c][loc]
	}
	b := min(o.caps[0], n)
	o.done(callBound, t0)
	return b
}

// RoundBound implements matroid.DynamicBounder.
func (o *benchOracle) RoundBound(round, loc int) int {
	t0 := o.begin()
	b := o.eng.GainBound(o.caps[round], o.in.EligMask[o.class(round)][loc])
	o.done(callGainBound, t0)
	return b
}

// flush returns the call counts since the last flush and, when timing,
// records one aggregate span per call kind under parent.
func (o *benchOracle) flush(parent int, sub string) [nCallKinds]int {
	var counts [nCallKinds]int
	for k := range o.calls {
		c := o.calls[k]
		counts[k] = c.count
		if o.tr != nil && c.count > 0 {
			o.tr.Add(Span{Name: callNames[k], Parent: parent, Start: c.start, End: c.end, Sub: sub,
				Count: c.count, Busy: c.busy})
		}
		o.calls[k] = callAgg{}
	}
	return counts
}

// replayer re-runs the per-subset body of Algorithm 2 stage by stage through
// each layer's public entry point — hop BFS, ground-set filter, lazy greedy
// over the matcher, MST relay connection — mirroring the program's own
// subset evaluation, so each stage can be timed from outside the program.
// The rest of an evaluation (leftover extension, slot assembly, scoring
// commits) is not replayed; it shows up as the residual against Evaluate.
type replayer struct {
	in     *uavnet.Instance
	k      int
	lmax   int
	ev     *core.SubsetEvaluator
	oracle *benchOracle

	dist, queue, ground, qCounts []int
	path, nodes, relays          []int
	mark, selMark                []bool
	hmax                         int
	feasible                     func(selected []int, e int) bool
	runner                       matroid.LazyRunner
	mst                          graph.MSTScratch
}

func newReplayer(in *uavnet.Instance, opts uavnet.Options) (*replayer, error) {
	ev, err := core.NewSubsetEvaluator(in, opts)
	if err != nil {
		return nil, err
	}
	budget := ev.Budget()
	q := core.QValues(budget.LMax, budget.P)
	sc := in.Scenario
	caps := make([]int, sc.K())
	for r, uav := range in.ByCapacity {
		caps[r] = sc.UAVs[uav].Capacity
	}
	oracle, err := newBenchOracle(in, caps)
	if err != nil {
		return nil, err
	}
	m := sc.M()
	r := &replayer{
		in: in, k: sc.K(), lmax: budget.LMax, ev: ev, oracle: oracle,
		dist: make([]int, m), qCounts: make([]int, len(q)),
		mark: make([]bool, m), selMark: make([]bool, m),
	}
	m2 := matroid.HopCount{Dist: r.dist, Q: q}
	r.hmax = m2.HMax()
	r.feasible = func(selected []int, e int) bool { return m2.CanAddInto(selected, e, r.qCounts) }
	return r, nil
}

// outcome is what the replay decided for one subset.
type outcome struct {
	pruned, feasible bool
	selected, relays []int
}

// pruned reports whether the program skips the subset without evaluating
// it: anchors in different components, or two anchors so far apart that any
// connected network through them needs more than K nodes.
func (r *replayer) pruned(anchors []int) bool {
	for i := range anchors {
		for j := i + 1; j < len(anchors); j++ {
			d := r.in.Hop[anchors[i]][anchors[j]]
			if d == graph.Unreachable || d+1 > r.k {
				return true
			}
		}
	}
	return false
}

// stage records a finished stage span under parent.
func stage(tr *Tracer, name string, parent int, sub string, start, end int64, counts map[string]int64) {
	tr.Add(Span{Name: name, Parent: parent, Start: start, End: end, Sub: sub, Counts: counts})
}

// replay runs one subset's stages under a root span named root, with
// per-call oracle spans when timeCalls is set.
func (r *replayer) replay(tr *Tracer, root, sub string, anchors []int, timeCalls bool) (outcome, error) {
	var out outcome
	id := tr.Begin(root, 0, sub)
	if r.pruned(anchors) {
		out.pruned = true
		tr.Finish(id, tr.Now(), map[string]int64{"pruned": 1})
		return out, nil
	}

	// Each stage's span ends before its counts are gathered.
	start := tr.Now()
	r.queue = r.in.LocGraph.MultiSourceBFSInto(anchors, r.dist, r.queue)
	end := tr.Now()
	reached := 0
	for _, d := range r.dist {
		if d != graph.Unreachable {
			reached++
		}
	}
	stage(tr, spanBFS, id, sub, start, end, map[string]int64{"nodes": int64(reached)})

	start = tr.Now()
	ground := r.ground[:0]
	for loc, d := range r.dist {
		if d != graph.Unreachable && d <= r.hmax {
			ground = append(ground, loc)
		}
	}
	r.ground = ground
	stage(tr, spanGround, id, sub, start, tr.Now(), map[string]int64{"size": int64(len(ground))})

	start = tr.Now()
	if err := r.oracle.eng.Reset(); err != nil {
		return out, err
	}
	stage(tr, spanReset, id, sub, start, tr.Now(), nil)

	if timeCalls {
		r.oracle.tr = tr
	}
	greedy := tr.Begin(spanGreedy, id, sub)
	selected, err := r.runner.Run(ground, r.lmax, r.feasible, r.oracle)
	end = tr.Now()
	calls := r.oracle.flush(greedy, sub)
	r.oracle.tr = nil
	if err != nil {
		return out, err
	}
	tr.Finish(greedy, end, map[string]int64{
		"rounds": int64(len(selected)), "gain": int64(calls[callGain]), "commit": int64(calls[callCommit]),
		"bound": int64(calls[callBound] + calls[callGainBound]),
	})
	out.selected = append([]int(nil), selected...)
	if len(selected) == 0 {
		tr.Finish(id, tr.Now(), nil)
		return out, nil
	}

	start = tr.Now()
	nodes, edges, err := r.connect(selected)
	end = tr.Now()
	if err != nil {
		return out, err
	}
	// Splitting the relays off the node set is slot assembly, which the
	// program times with the residual; it stays outside the stage spans.
	relays := r.relays[:0]
	for _, v := range selected {
		r.selMark[v] = true
	}
	for _, v := range nodes {
		if !r.selMark[v] {
			relays = append(relays, v)
		}
	}
	for _, v := range selected {
		r.selMark[v] = false
	}
	r.relays = relays
	stage(tr, spanConnect, id, sub, start, end, map[string]int64{"mst_edges": int64(edges), "relays": int64(len(relays))})

	out.feasible = len(nodes) <= r.k
	out.relays = append([]int(nil), relays...)
	feasible := int64(0)
	if out.feasible {
		feasible = 1
	}
	tr.Finish(id, tr.Now(), map[string]int64{"feasible": feasible})
	return out, nil
}

// connect returns the sorted node set of the MST-over-hops connector of the
// selected locations, each tree edge expanded into its shortest path, and
// the tree's edge count.
func (r *replayer) connect(selected []int) ([]int, int, error) {
	nodes := r.nodes[:0]
	add := func(v int) {
		if !r.mark[v] {
			r.mark[v] = true
			nodes = append(nodes, v)
		}
	}
	for _, v := range selected {
		add(v)
	}
	var tree []graph.WeightedEdge
	var err error
	if len(selected) > 1 {
		tree, _, err = r.mst.CompleteHopMST(r.in.Hop, selected)
		for _, e := range tree {
			if err != nil {
				break
			}
			path := r.in.Paths.PathInto(selected[e.U], selected[e.V], r.path)
			if path == nil {
				err = fmt.Errorf("no path between %d and %d", selected[e.U], selected[e.V])
				break
			}
			r.path = path
			for _, v := range path {
				add(v)
			}
		}
	}
	for _, v := range nodes {
		r.mark[v] = false
	}
	r.nodes = nodes
	if err != nil {
		return nil, 0, err
	}
	sort.Ints(nodes)
	return nodes, len(tree), nil
}

// agree checks a replay against the program's own evaluation of the same
// subset: same feasibility, the greedy selection is Locs[:NSel], and the
// relays fill the next slots. Per-layer numbers are only valid while the
// replay measures the program's own path.
func agree(o outcome, res core.EvalResult) error {
	if o.feasible != res.Feasible {
		return fmt.Errorf("replay feasible=%v, Evaluate feasible=%v", o.feasible, res.Feasible)
	}
	if !o.feasible {
		return nil
	}
	if res.NSel != len(o.selected) || !slices.Equal(res.Locs[:res.NSel], o.selected) {
		return fmt.Errorf("replay selected %v, Evaluate %v", o.selected, res.Locs[:res.NSel])
	}
	end := res.NSel + len(o.relays)
	if end > len(res.Locs) || !slices.Equal(res.Locs[res.NSel:end], o.relays) {
		return fmt.Errorf("replay relays %v, Evaluate slots %v", o.relays, res.Locs[res.NSel:])
	}
	return nil
}

// sampleSubsets draws n sorted anchor subsets of s distinct cells out of m.
func sampleSubsets(rng *rand.Rand, n, s, m int) [][]int {
	out := make([][]int, n)
	for i := range out {
		a := make([]int, 0, s)
		for len(a) < s {
			c := rng.Intn(m)
			if !slices.Contains(a, c) {
				a = append(a, c)
			}
		}
		sort.Ints(a)
		out[i] = a
	}
	return out
}

// replaySubsets replays a seeded sample of anchor subsets in three passes
// over the same subsets: the stages with stage spans only; the program's own
// Evaluate of each subset, one span per call, checked against the replay;
// and the stages again with per-call oracle spans. Each subset is one
// operation, failed when a pass disagrees with Evaluate.
//
// The garbage collector is off during the passes. The program's evaluation
// path allocates nothing, but recording spans does, and collections landing
// in some passes' timed sections and not others' would bias the residual.
// The passes allocate a few megabytes.
func replaySubsets(t *tally, tr *Tracer, in *uavnet.Instance, opts uavnet.Options, sub string, seed int64) error {
	r, err := newReplayer(in, opts)
	if err != nil {
		return err
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	subsets := sampleSubsets(rand.New(rand.NewSource(seed)), replaySample, r.ev.S(), in.Scenario.M())
	names := make([]string, len(subsets))
	outs := make([]outcome, len(subsets))
	for i, anchors := range subsets {
		names[i] = fmt.Sprintf("%s/subset-%d", sub, i)
		if outs[i], err = r.replay(tr, spanStages, names[i], anchors, false); err != nil {
			return err
		}
	}
	for i, anchors := range subsets {
		start := tr.Now()
		res, err := r.ev.Evaluate(anchors)
		stage(tr, spanEvaluate, 0, names[i], start, tr.Now(), nil)
		if err != nil {
			return err
		}
		if err := agree(outs[i], res); err != nil {
			err = fmt.Errorf("replay of %s %v: %w", names[i], anchors, err)
		}
		t.op(err)
	}
	for i, anchors := range subsets {
		out, err := r.replay(tr, spanCalls, names[i], anchors, true)
		if err != nil {
			return err
		}
		if out.feasible != outs[i].feasible || !slices.Equal(out.selected, outs[i].selected) {
			t.op(fmt.Errorf("timed replay of %s %v selected %v, untimed %v", names[i], anchors, out.selected, outs[i].selected))
		}
	}
	return nil
}
