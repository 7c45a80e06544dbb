package uavnet_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// largeMCase is one solve of the large-m fixture corpus: a scenario of the
// portfolio-m900 benchmark shape (m = 900 cells of 100 m, 600 uniform users,
// 10 UAVs) generated from seed, solved under opts, whole and in StopAfter
// slices of slice.
type largeMCase struct {
	name  string
	seed  int64
	opts  uavnet.Options
	slice int64
}

// largeMCases are the solves whose SaveDeployment bytes live under
// testdata/largem. They were written by the release whose subset evaluation
// still ran a multi-source BFS per subset, filtered the greedy's ground set
// and probed M2 with CanAddInto on every pop. At m = 900 the hop threshold
// binds and neighbour sets overlap heavily, which the m <= 64 corpora
// elsewhere barely exercise.
var largeMCases = []largeMCase{
	{"portfolio-seed1", 1, uavnet.Options{S: 3, Workers: 2, Solver: "portfolio", SolverBudget: 300, Seed: 1}, 70},
	{"portfolio-seed2", 2, uavnet.Options{S: 3, Workers: 2, Solver: "portfolio", SolverBudget: 300, Seed: 2}, 70},
	{"enum-sampled", 1, uavnet.Options{S: 3, Workers: 2, MaxSubsets: 2000, Seed: 1}, 700},
}

// largeMSpec is the portfolio-m900 benchmark's scenario shape.
func largeMSpec(seed int64) uavnet.ScenarioSpec {
	return uavnet.ScenarioSpec{AreaSide: 3000, CellSide: 100, N: 600, K: 10, CMin: 20, CMax: 120,
		Distribution: uavnet.UniformUsers, Seed: seed}
}

// solveInSlices solves opts on in as a chain of StopAfter slices, each
// resuming the last one's checkpoint with its cut slice past an
// enumeration's cursor or a race's furthest member, as the job server's test
// seam cuts; slice 0 solves in one run. Every cut must stop with a nil error
// and a checkpoint, and the chain must end complete, after more than one
// slice when slice is positive.
func solveInSlices(t *testing.T, in *uavnet.Instance, opts uavnet.Options, slice int64) *uavnet.Deployment {
	t.Helper()
	for n := 1; ; n++ {
		if slice > 0 {
			opts.StopAfter = slice
			if cp := opts.Resume; cp != nil {
				opts.StopAfter += cp.Cursor
				for _, m := range cp.Members {
					opts.StopAfter = max(opts.StopAfter, m.Evals+slice)
				}
			}
		}
		dep, err := uavnet.DeployInstanceContext(context.Background(), in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if dep.Status != uavnet.StatusStopped {
			if dep.Status != uavnet.StatusComplete || (slice > 0 && n == 1) {
				t.Fatalf("slice %d of %d ended %q, want a complete chain of several", n, slice, dep.Status)
			}
			return dep
		}
		if opts.Resume = dep.Checkpoint; opts.Resume == nil {
			t.Fatal("a stopped run returned no checkpoint")
		}
	}
}

// TestLargeMDeploymentsByteIdentical re-solves every large-m case, in one
// run and as a chain of StopAfter slices, and requires SaveDeployment to
// write the fixture's bytes exactly both times.
func TestLargeMDeploymentsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range largeMCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "largem", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			in, err := uavnet.GenerateInstance(largeMSpec(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			if m := in.Scenario.M(); m != 900 {
				t.Fatalf("scenario has m=%d cells, want 900", m)
			}
			for _, slice := range []int64{0, tc.slice} {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", tc.name, slice))
				if err := uavnet.SaveDeployment(path, solveInSlices(t, in, tc.opts, slice)); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("deployment bytes in slices of %d differ from testdata/largem/%s.json", slice, tc.name)
				}
			}
		})
	}
}
