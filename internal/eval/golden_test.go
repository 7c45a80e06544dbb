package eval

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// TestGoldenPaperFullRow regenerates the K=2 row of results/paper_full.csv
// from scratch — paper-scale Section IV-A parameters, seed 1, every
// algorithm — and compares the served-user counts against the checked-in
// results. This pins the published numbers to the code: any change to the
// workload generator, the channel model, or an algorithm that silently
// shifts the paper reproduction fails here first. K=2 is the cheapest row
// (approAlg enumerates C(m,2) anchor pairs in tens of milliseconds), so the
// test runs even under -short.
func TestGoldenPaperFullRow(t *testing.T) {
	t.Parallel()
	const goldenK = 2
	want := goldenServed(t, filepath.Join("..", "..", "results", "paper_full.csv"), goldenK)

	series, err := Fig4(Config{Seeds: []int64{1}}, []int{goldenK})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 1 {
		t.Fatalf("Fig4 returned %d points, want 1", len(series.Points))
	}
	got := series.Points[0].Served
	for alg, served := range want {
		g, ok := got[alg]
		if !ok {
			t.Errorf("algorithm %s missing from Fig4 output", alg)
			continue
		}
		if g != served {
			t.Errorf("%s served %g users at K=%d, golden file says %g", alg, g, goldenK, served)
		}
	}
	if len(got) != len(want) {
		t.Errorf("Fig4 ran %d algorithms, golden row has %d", len(got), len(want))
	}
}

// quickBase is uavbench's -scale quick scenario, the setting the harness
// goldens below pin.
var quickBase = uavnet.ScenarioSpec{AreaSide: 2000, CellSide: 500, N: 300, K: 8, CMin: 10, CMax: 60}

// TestGoldenQuickScale pins the served counts of the harness's other entry
// points at uavbench's quick scale, seed 1: the metaheuristic slot of the
// figure sweeps, the Ablation variants, and Heterogeneity at both spread
// ends. Any change to how the harness dispatches a column — solver, options,
// seed — shows up here as a shifted count.
func TestGoldenQuickScale(t *testing.T) {
	t.Parallel()
	cfg := Config{Base: quickBase, Seeds: []int64{1}}
	solverCfg := cfg
	solverCfg.Solver, solverCfg.SolverBudget = "portfolio", 500
	for _, tc := range []struct {
		name string
		run  func() (*Series, error)
		want []map[string]float64 // per point
	}{
		{"solver-fig4", func() (*Series, error) { return Fig4(solverCfg, []int{2, 3, 4}) }, []map[string]float64{
			{"portfolio": 66, "MCS": 66, "MotionCtrl": 66, "GreedyAssign": 66, "maxThroughput": 66},
			{"portfolio": 85, "MCS": 85, "MotionCtrl": 85, "GreedyAssign": 85, "maxThroughput": 85},
			{"portfolio": 142, "MCS": 130, "MotionCtrl": 103, "GreedyAssign": 130, "maxThroughput": 137},
		}},
		{"ablation", func() (*Series, error) { return Ablation(cfg) }, []map[string]float64{
			{"full": 246, "no-prune": 246, "ground-leftovers": 237, "sampled-10pct": 244},
		}},
		{"heterogeneity", func() (*Series, error) { return Heterogeneity(cfg, []float64{0, 1}) }, []map[string]float64{
			{"approAlg": 253, "MCS": 171, "MotionCtrl": 222, "GreedyAssign": 189, "maxThroughput": 253},
			{"approAlg": 246, "MCS": 162, "MotionCtrl": 217, "GreedyAssign": 162, "maxThroughput": 227},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			series, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(series.Points) != len(tc.want) {
				t.Fatalf("%d points, want %d", len(series.Points), len(tc.want))
			}
			for i, want := range tc.want {
				if got := series.Points[i].Served; !reflect.DeepEqual(got, want) {
					t.Errorf("point %g served %v, want %v", series.Points[i].X, got, want)
				}
			}
		})
	}
}

// goldenServed parses one K-row of the paper_full.csv Fig. 4 block into
// algorithm -> served users, from the *_served header columns.
func goldenServed(t *testing.T, path string, k int) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("golden file %s has no data rows", path)
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "K" {
		t.Fatalf("golden file %s: first block is not the Fig. 4 K-sweep (header %q)", path, lines[0])
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(header) {
			break // next block or malformed tail
		}
		rowK, err := strconv.Atoi(fields[0])
		if err != nil || rowK != k {
			continue
		}
		want := make(map[string]float64)
		for i, col := range header {
			alg, ok := strings.CutSuffix(col, "_served")
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				t.Fatalf("golden file %s: bad %s value %q: %v", path, col, fields[i], err)
			}
			want[alg] = v
		}
		return want
	}
	t.Fatalf("golden file %s has no K=%d row", path, k)
	return nil
}
