package main

import (
	"io"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/core"
)

// replayInstance is a small instance with pruned, infeasible and feasible
// subsets in any sample.
func replayInstance(t *testing.T, aggCell float64) *uavnet.Instance {
	t.Helper()
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{AreaSide: 3000, CellSide: 500, N: 300, K: 6,
		CMin: 20, CMax: 80, SnapSide: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInstance(sc, aggCell)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestReplayAgreesWithEvaluate(t *testing.T) {
	for _, c := range []struct {
		name    string
		aggCell float64
	}{{"per-user", 0}, {"aggregated", 250}} {
		t.Run(c.name, func(t *testing.T) {
			tl := &tally{errs: io.Discard}
			tr := NewTracer()
			if err := replaySubsets(tl, tr, replayInstance(t, c.aggCell), uavnet.Options{S: 3, Workers: 1}, "s", 1); err != nil {
				t.Fatal(err)
			}
			if tl.attempted != replaySample || tl.failed != 0 {
				t.Fatalf("%d of %d replayed subsets disagree with Evaluate", tl.failed, tl.attempted)
			}
			m := layerMetrics(tr.Spans())
			if f := m["core.feasible_ratio"].Value; f <= 0 || f >= 1 {
				t.Errorf("feasible ratio %v: the sample should hold feasible and infeasible subsets", f)
			}
			if m["core.eval_us"].Value <= 0 || m["matroid.gain_calls"].Value <= 0 || m["match.gain_us"].Value <= 0 {
				t.Errorf("empty layer metrics: %v", m)
			}
		})
	}
}

func TestAgreeDetectsEveryMismatch(t *testing.T) {
	feasible := outcome{feasible: true, selected: []int{4, 9}, relays: []int{5}}
	res := core.EvalResult{Feasible: true, Served: 10, Locs: []int{4, 9, 5, 12}, NSel: 2}
	if err := agree(feasible, res); err != nil {
		t.Fatalf("matching replay rejected: %v", err)
	}
	cases := []struct {
		name string
		o    outcome
		res  core.EvalResult
	}{
		{"feasibility", outcome{feasible: false}, res},
		{"selection order", outcome{feasible: true, selected: []int{9, 4}, relays: []int{5}}, res},
		{"selection length", outcome{feasible: true, selected: []int{4}, relays: []int{9, 5}}, res},
		{"relays", outcome{feasible: true, selected: []int{4, 9}, relays: []int{12}}, res},
		{"relays past the slots", outcome{feasible: true, selected: []int{4, 9}, relays: []int{5, 12, 13}}, res},
	}
	for _, c := range cases {
		if err := agree(c.o, c.res); err == nil {
			t.Errorf("%s mismatch accepted", c.name)
		}
	}
	if err := agree(outcome{pruned: true}, core.EvalResult{}); err != nil {
		t.Errorf("pruned subset: %v", err)
	}
}
