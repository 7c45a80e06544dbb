package uavnet_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// largeMCase is one solve of the large-m fixture corpus: a scenario of the
// portfolio-m900 benchmark shape (m = 900 cells of 100 m, 600 uniform users,
// 10 UAVs) generated from seed, solved under opts.
type largeMCase struct {
	name string
	seed int64
	opts uavnet.Options
}

// largeMCases are the solves whose SaveDeployment bytes live under
// testdata/largem. They were written by the release whose subset evaluation
// still ran a multi-source BFS per subset, filtered the greedy's ground set
// and probed M2 with CanAddInto on every pop. At m = 900 the hop threshold
// binds and neighbour sets overlap heavily, which the m <= 64 corpora
// elsewhere barely exercise.
var largeMCases = []largeMCase{
	{"portfolio-seed1", 1, uavnet.Options{S: 3, Workers: 2, Solver: "portfolio", SolverBudget: 300, Seed: 1}},
	{"portfolio-seed2", 2, uavnet.Options{S: 3, Workers: 2, Solver: "portfolio", SolverBudget: 300, Seed: 2}},
	{"enum-sampled", 1, uavnet.Options{S: 3, Workers: 2, MaxSubsets: 2000, Seed: 1}},
}

// largeMSpec is the portfolio-m900 benchmark's scenario shape.
func largeMSpec(seed int64) uavnet.ScenarioSpec {
	return uavnet.ScenarioSpec{AreaSide: 3000, CellSide: 100, N: 600, K: 10, CMin: 20, CMax: 120,
		Distribution: uavnet.UniformUsers, Seed: seed}
}

// saveLargeM solves one case and writes its deployment to path.
func saveLargeM(t *testing.T, tc largeMCase, path string) {
	t.Helper()
	in, err := uavnet.GenerateInstance(largeMSpec(tc.seed))
	if err != nil {
		t.Fatal(err)
	}
	if m := in.Scenario.M(); m != 900 {
		t.Fatalf("scenario has m=%d cells, want 900", m)
	}
	dep, err := uavnet.DeployInstanceContext(context.Background(), in, tc.opts)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Status != uavnet.StatusComplete {
		t.Fatalf("run ended %q, want complete", dep.Status)
	}
	if err := uavnet.SaveDeployment(path, dep); err != nil {
		t.Fatal(err)
	}
}

// TestLargeMDeploymentsByteIdentical re-solves every large-m case and
// requires SaveDeployment to write the fixture's bytes exactly.
func TestLargeMDeploymentsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range largeMCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "largem", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.name+".json")
			saveLargeM(t, tc, path)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("deployment bytes differ from testdata/largem/%s.json", tc.name)
			}
		})
	}
}
